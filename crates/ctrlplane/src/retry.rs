//! Bounded attach retry with exponential backoff.
//!
//! A control-plane rejection is not always final: `DonorExhausted` and
//! `NoPath` describe the *current* reservation state, which another
//! tenant's detach can change a moment later. This module
//! classifies [`CpError`]s into transient and permanent
//! ([`CpError::is_transient`]) and drives a bounded, exponentially
//! backed-off retry loop over [`ControlPlane::attach`]
//! ([`attach_with_retry`]). Permanent errors — bad credentials, unknown
//! hosts, malformed sizes — fail fast on the first attempt.
//!
//! The control plane has no clock of its own, so backoff is accounted in
//! *simulated* time and reported through [`RetryStats`]; the caller owns
//! the clock and decides what to do with the accumulated delay. Between
//! attempts the caller-supplied `on_backoff` hook runs with full mutable
//! access to the control plane — in production that is where the caller
//! would wait; in tests it is where a competing flow detaches and frees
//! the capacity the retry then wins.

use simkit::time::SimTime;

use crate::api::AttachSpec;
use crate::auth::Token;
use crate::service::{ControlPlane, CpError, FlowGrant};

impl CpError {
    /// Whether a retry can plausibly succeed without operator action.
    ///
    /// Capacity- and path-shaped rejections are transient: reservations
    /// churn. Authorization, unknown hosts and malformed requests are
    /// permanent: retrying replays the same mistake.
    pub fn is_transient(&self) -> bool {
        matches!(self, CpError::DonorExhausted { .. } | CpError::NoPath)
    }
}

/// Bounded exponential-backoff policy for control-plane attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_backoff: SimTime,
    /// Simulated-time budget one attempt may consume before it is
    /// abandoned. The in-memory control plane answers instantly, so
    /// this is pure accounting here — but it bounds the worst case the
    /// caller must plan for: a failed attach burns at most
    /// `attempt_timeout`, then its backoff.
    pub attempt_timeout: SimTime,
    /// Ceiling on any single backoff. Doubling saturates here instead
    /// of growing without bound: at attempt 47 an unchecked
    /// `50 µs << 46` already overflows the picosecond clock, so every
    /// policy must name the plateau it is willing to wait at.
    pub max_backoff: SimTime,
}

impl Default for RetryPolicy {
    /// Four attempts backing off 50 µs, 100 µs, 200 µs — well above the
    /// 25 µs switch reconfiguration the paper measures, so a retry never
    /// races the reroute that would satisfy it. Each attempt gets a
    /// 25 µs budget of its own, and no backoff ever exceeds 10 ms (far
    /// past any recovery the fabric models).
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimTime::from_us(50),
            attempt_timeout: SimTime::from_us(25),
            max_backoff: SimTime::from_ms(10),
        }
    }
}

impl RetryPolicy {
    /// The backoff to wait after failed attempt `attempt` (1-based):
    /// `min(base_backoff << (attempt - 1), max_backoff)`.
    ///
    /// Doubling is saturating and clamped, so arbitrarily large attempt
    /// numbers plateau at `max_backoff` instead of wrapping the
    /// picosecond clock. A `max_backoff` below `base_backoff` clamps
    /// the very first backoff too.
    pub fn backoff_after(&self, attempt: u32) -> SimTime {
        let mut b = self.base_backoff.min(self.max_backoff);
        let mut i = 1;
        while i < attempt {
            if b >= self.max_backoff {
                return self.max_backoff;
            }
            b = b.saturating_add(b).min(self.max_backoff);
            i += 1;
        }
        b
    }
}

/// What a retried attach cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryStats {
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Simulated time spent backing off between attempts.
    pub backoff_total: SimTime,
    /// Simulated time charged to failed attempts themselves
    /// (`attempt_timeout` per transient failure).
    pub attempt_time_total: SimTime,
    /// Every transient error absorbed along the way, in order.
    pub transient_errors: Vec<CpError>,
}

impl RetryStats {
    fn first_try() -> Self {
        RetryStats {
            attempts: 0,
            backoff_total: SimTime::ZERO,
            attempt_time_total: SimTime::ZERO,
            transient_errors: Vec::new(),
        }
    }

    /// Total simulated delay the retries cost: failed-attempt budgets
    /// plus the backoffs between them.
    pub fn total_delay(&self) -> SimTime {
        self.backoff_total + self.attempt_time_total
    }

    /// One-line account of what the retries cost, shaped for journal
    /// and log details: `"3 attempts (2 transient: donor exhausted on d
    /// (0 B free), no path) costing 175.000us"`, or `"first try"` when
    /// nothing was retried.
    pub fn summary(&self) -> String {
        if self.attempts <= 1 && self.transient_errors.is_empty() {
            return "first try".to_string();
        }
        let absorbed: Vec<String> =
            self.transient_errors.iter().map(|e| e.to_string()).collect();
        format!(
            "{} attempts ({} transient: {}) costing {}",
            self.attempts,
            absorbed.len(),
            absorbed.join(", "),
            self.total_delay(),
        )
    }
}

/// Attaches with bounded retry: transient rejections back off and try
/// again (up to `policy.max_attempts`), permanent rejections fail fast.
///
/// `on_backoff(cp, attempt, err)` runs before each retry with the
/// 1-based number of the attempt that just failed and the transient
/// error it failed with.
///
/// # Errors
///
/// Returns the first permanent error immediately, or the last transient
/// error once attempts are exhausted; both carry the [`RetryStats`]
/// accumulated so far.
pub fn attach_with_retry<F>(
    cp: &mut ControlPlane,
    token: &Token,
    spec: AttachSpec,
    policy: &RetryPolicy,
    mut on_backoff: F,
) -> Result<(FlowGrant, RetryStats), (CpError, RetryStats)>
where
    F: FnMut(&mut ControlPlane, u32, &CpError),
{
    let max = policy.max_attempts.max(1);
    let mut stats = RetryStats::first_try();
    loop {
        stats.attempts += 1;
        match cp.attach(token, spec.clone()) {
            Ok(grant) => return Ok((grant, stats)),
            Err(e) if e.is_transient() && stats.attempts < max => {
                stats.attempt_time_total = stats.attempt_time_total + policy.attempt_timeout;
                stats.backoff_total =
                    stats.backoff_total + policy.backoff_after(stats.attempts);
                on_backoff(cp, stats.attempts, &e);
                stats.transient_errors.push(e);
            }
            Err(e) => return Err((e, stats)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Role;
    use simkit::units::GIB;

    fn plane() -> (ControlPlane, Token) {
        let mut cp = ControlPlane::new("s");
        let admin = cp.auth_mut().issue_token(Role::Admin);
        cp.register_host("b", 64 * GIB);
        cp.register_host("d", 64 * GIB);
        cp.add_cable("b", "d").unwrap();
        cp.add_cable("b", "d").unwrap();
        (cp, admin)
    }

    fn spec(bytes: u64) -> AttachSpec {
        AttachSpec {
            compute_host: "b".into(),
            memory_host: "d".into(),
            bytes,
            bonded: false,
        }
    }

    #[test]
    fn classification_separates_transient_from_permanent() {
        assert!(CpError::NoPath.is_transient());
        assert!(CpError::DonorExhausted {
            host: "d".into(),
            available: 0
        }
        .is_transient());
        assert!(!CpError::UnknownHost("x".into()).is_transient());
        assert!(!CpError::BadSize(3).is_transient());
        assert!(!CpError::UnknownFlow(crate::service::FlowHandle(9)).is_transient());
    }

    #[test]
    fn first_try_success_costs_nothing() {
        let (mut cp, admin) = plane();
        let (grant, stats) =
            attach_with_retry(&mut cp, &admin, spec(GIB), &RetryPolicy::default(), |_, _, _| {
                panic!("no backoff on success")
            })
            .unwrap();
        assert_eq!(grant.memory_config.len, GIB);
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.backoff_total, SimTime::ZERO);
    }

    #[test]
    fn transient_exhaustion_retries_and_wins_when_capacity_frees() {
        let (mut cp, admin) = plane();
        // A competing flow takes the whole donor.
        let hog = cp.attach(&admin, spec(64 * GIB)).unwrap();
        let mut freed = false;
        let (grant, stats) = attach_with_retry(
            &mut cp,
            &admin,
            spec(GIB),
            &RetryPolicy::default(),
            |cp, attempt, err| {
                assert!(matches!(err, CpError::DonorExhausted { .. }));
                // The hog detaches while we back off from attempt 2.
                if attempt == 2 {
                    cp.detach(&admin, hog.flow).unwrap();
                    freed = true;
                }
            },
        )
        .unwrap();
        assert!(freed);
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.transient_errors.len(), 2);
        // 50 µs + 100 µs of exponential backoff.
        assert_eq!(stats.backoff_total, SimTime::from_us(150));
        // Two failed attempts at 25 µs each; 200 µs of delay in all.
        assert_eq!(stats.attempt_time_total, SimTime::from_us(50));
        assert_eq!(stats.total_delay(), SimTime::from_us(200));
        assert_eq!(grant.memory_config.len, GIB);
    }

    #[test]
    fn summary_reads_as_one_journal_ready_line() {
        assert_eq!(RetryStats::first_try().summary(), "first try");
        let (mut cp, admin) = plane();
        let (_, stats) =
            attach_with_retry(&mut cp, &admin, spec(GIB), &RetryPolicy::default(), |_, _, _| {})
                .unwrap();
        assert_eq!(stats.summary(), "first try");
        let hog = cp.attach(&admin, spec(62 * GIB)).unwrap();
        let (_, stats) = attach_with_retry(
            &mut cp,
            &admin,
            spec(2 * GIB),
            &RetryPolicy::default(),
            |cp, attempt, _| {
                if attempt == 1 {
                    cp.detach(&admin, hog.flow).unwrap();
                }
            },
        )
        .unwrap();
        let line = stats.summary();
        assert!(line.starts_with("2 attempts (1 transient: "), "{line}");
        assert!(line.ends_with("costing 75.000us"), "{line}");
    }

    #[test]
    fn exhausted_retries_return_the_last_transient_error() {
        let (mut cp, admin) = plane();
        let _hog = cp.attach(&admin, spec(64 * GIB)).unwrap();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: SimTime::from_us(10),
            attempt_timeout: SimTime::from_us(5),
            ..RetryPolicy::default()
        };
        let (err, stats) =
            attach_with_retry(&mut cp, &admin, spec(GIB), &policy, |_, _, _| {}).unwrap_err();
        assert!(matches!(err, CpError::DonorExhausted { .. }));
        assert_eq!(stats.attempts, 3);
        // 10 µs + 20 µs: backoff accrues only between attempts.
        assert_eq!(stats.backoff_total, SimTime::from_us(30));
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let (mut cp, admin) = plane();
        let bad = AttachSpec {
            compute_host: "ghost".into(),
            memory_host: "d".into(),
            bytes: GIB,
            bonded: false,
        };
        let (err, stats) = attach_with_retry(
            &mut cp,
            &admin,
            bad,
            &RetryPolicy::default(),
            |_, _, _| panic!("permanent errors must not back off"),
        )
        .unwrap_err();
        assert!(matches!(err, CpError::UnknownHost(_)));
        assert_eq!(stats.attempts, 1);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: SimTime::from_us(50),
            attempt_timeout: SimTime::from_us(25),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_after(1), SimTime::from_us(50));
        assert_eq!(p.backoff_after(2), SimTime::from_us(100));
        assert_eq!(p.backoff_after(3), SimTime::from_us(200));
    }

    #[test]
    fn backoff_saturates_at_the_cap_instead_of_overflowing() {
        // Unchecked doubling of 50 µs overflows u64 picoseconds at
        // attempt 47; deep retry loops must plateau, not wrap or panic.
        let p = RetryPolicy {
            max_attempts: 128,
            base_backoff: SimTime::from_us(50),
            attempt_timeout: SimTime::from_us(25),
            max_backoff: SimTime::from_us(400),
        };
        // 50, 100, 200, then the 400 µs plateau forever after.
        assert_eq!(p.backoff_after(3), SimTime::from_us(200));
        assert_eq!(p.backoff_after(4), SimTime::from_us(400));
        assert_eq!(p.backoff_after(5), SimTime::from_us(400));
        assert_eq!(p.backoff_after(64), SimTime::from_us(400));
        assert_eq!(p.backoff_after(u32::MAX), SimTime::from_us(400));
        // The default cap holds at depth too.
        let d = RetryPolicy::default();
        assert_eq!(d.backoff_after(64), SimTime::from_ms(10));
        assert_eq!(d.backoff_after(200), SimTime::from_ms(10));
    }

    #[test]
    fn cap_below_base_clamps_the_first_backoff() {
        let p = RetryPolicy {
            max_backoff: SimTime::from_us(20),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_after(1), SimTime::from_us(20));
        assert_eq!(p.backoff_after(64), SimTime::from_us(20));
    }
}
