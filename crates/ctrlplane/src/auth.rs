//! Access control and trusted configuration push.
//!
//! "An access control system ensures that only users with enough
//! privileges can act on the system status. […] To make sure no
//! malicious software can push illegal configurations, trusted node
//! agents and network elements firmware accept configuration updates
//! only from a trusted control plane."

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A bearer token issued by the control plane.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Token(pub String);

/// Privilege level of a token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// May attach/detach between any pair of hosts.
    Admin,
    /// May only act on the listed hosts.
    Tenant {
        /// Hosts this tenant may involve in attachments.
        hosts: Vec<String>,
    },
    /// Read-only observer.
    Observer,
}

/// Authorization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// Token not recognised.
    UnknownToken,
    /// Token recognised but lacks the privilege.
    Forbidden,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownToken => write!(f, "unknown token"),
            AuthError::Forbidden => write!(f, "insufficient privileges"),
        }
    }
}

impl std::error::Error for AuthError {}

/// The token registry.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct AccessControl {
    tokens: BTreeMap<Token, Role>,
    next_serial: u64,
    denials: u64,
}

impl AccessControl {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a fresh token with a role.
    pub fn issue_token(&mut self, role: Role) -> Token {
        let t = Token(format!("tok-{:08x}", self.next_serial));
        self.next_serial += 1;
        self.tokens.insert(t.clone(), role);
        t
    }

    /// The role of a token.
    pub(crate) fn role(&self, token: &Token) -> Option<&Role> {
        self.tokens.get(token)
    }

    /// Checks that `token` may attach/detach involving the two hosts.
    ///
    /// # Errors
    ///
    /// Fails for unknown tokens, observers, and tenants whose host list
    /// does not cover both hosts.
    pub(crate) fn authorize_attach(
        &mut self,
        token: &Token,
        compute: &str,
        memory: &str,
    ) -> Result<(), AuthError> {
        let role = self.tokens.get(token).ok_or_else(|| {
            self.denials += 1;
            AuthError::UnknownToken
        })?;
        let ok = match role {
            Role::Admin => true,
            Role::Tenant { hosts } => {
                hosts.iter().any(|h| h == compute) && hosts.iter().any(|h| h == memory)
            }
            Role::Observer => false,
        };
        if ok {
            Ok(())
        } else {
            self.denials += 1;
            Err(AuthError::Forbidden)
        }
    }

    /// Authorization denials observed (for the audit trail).
    pub fn denials(&self) -> u64 {
        self.denials
    }
}

/// Signs a configuration blob with the control plane's shared secret so
/// agents can verify its origin (a stand-in for mutually authenticated
/// channels).
pub(crate) fn sign_config(secret: &str, payload: &str) -> u64 {
    // FNV-1a over secret || payload: not cryptographic, but deterministic
    // and good enough to model the trust check.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in secret.bytes().chain(payload.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Verifies a configuration signature.
pub(crate) fn verify_config(secret: &str, payload: &str, signature: u64) -> bool {
    sign_config(secret, payload) == signature
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_can_do_anything() {
        let mut ac = AccessControl::new();
        let t = ac.issue_token(Role::Admin);
        assert!(ac.authorize_attach(&t, "a", "b").is_ok());
    }

    #[test]
    fn tenant_scoped_to_hosts() {
        let mut ac = AccessControl::new();
        let t = ac.issue_token(Role::Tenant {
            hosts: vec!["a".into(), "b".into()],
        });
        assert!(ac.authorize_attach(&t, "a", "b").is_ok());
        assert_eq!(
            ac.authorize_attach(&t, "a", "c"),
            Err(AuthError::Forbidden)
        );
        assert_eq!(ac.denials(), 1);
    }

    #[test]
    fn observer_cannot_attach() {
        let mut ac = AccessControl::new();
        let t = ac.issue_token(Role::Observer);
        assert_eq!(ac.authorize_attach(&t, "a", "b"), Err(AuthError::Forbidden));
    }

    #[test]
    fn unknown_tokens_rejected() {
        let mut ac = AccessControl::new();
        assert_eq!(
            ac.authorize_attach(&Token("nope".into()), "a", "b"),
            Err(AuthError::UnknownToken)
        );
    }

    #[test]
    fn signatures_detect_tampering() {
        let sig = sign_config("secret", "config-blob");
        assert!(verify_config("secret", "config-blob", sig));
        assert!(!verify_config("secret", "config-blob2", sig));
        assert!(!verify_config("wrong", "config-blob", sig));
    }
}
