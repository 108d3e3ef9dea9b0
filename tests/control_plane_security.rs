//! Cross-crate integration: the software-defined control plane's REST
//! interface, access control and the trusted-agent property.

use thymesisflow::ctrlplane::agent::{AgentError, NodeAgent};
use thymesisflow::ctrlplane::api::{AttachSpec, Request, Response};
use thymesisflow::ctrlplane::auth::Role;
use thymesisflow::ctrlplane::service::ControlPlane;
use thymesisflow::hostsim::node::{HostNode, NodeSpec};
use thymesisflow::simkit::units::GIB;

fn plane() -> ControlPlane {
    let mut cp = ControlPlane::new("integration-secret");
    cp.register_host("c1", 512 * GIB);
    cp.register_host("m1", 512 * GIB);
    cp.add_cable("c1", "m1").unwrap();
    cp.add_cable("c1", "m1").unwrap();
    cp
}

#[test]
fn rest_json_attach_status_detach() {
    let mut cp = plane();
    let admin = cp.auth_mut().issue_token(Role::Admin);
    let attach = serde_json::to_string(&Request::Attach {
        token: admin.clone(),
        spec: AttachSpec {
            compute_host: "c1".into(),
            memory_host: "m1".into(),
            bytes: 2 * GIB,
            bonded: true,
        },
    })
    .unwrap();
    let resp: Response = serde_json::from_str(&cp.handle_json(&attach)).unwrap();
    let flow = match resp {
        Response::Attached { flow, bytes, channels } => {
            assert_eq!(bytes, 2 * GIB);
            assert_eq!(channels, 2);
            flow
        }
        other => panic!("unexpected: {other:?}"),
    };
    let status = serde_json::to_string(&Request::Status { token: admin.clone() }).unwrap();
    let resp: Response = serde_json::from_str(&cp.handle_json(&status)).unwrap();
    assert_eq!(resp, Response::Status { flows: 1, hosts: 2 });
    let detach = serde_json::to_string(&Request::Detach { token: admin, flow }).unwrap();
    let resp: Response = serde_json::from_str(&cp.handle_json(&detach)).unwrap();
    assert_eq!(resp, Response::Detached { flow });
}

#[test]
fn unauthorized_and_forbidden_flows_are_rejected() {
    let mut cp = plane();
    let observer = cp.auth_mut().issue_token(Role::Observer);
    let spec = AttachSpec {
        compute_host: "c1".into(),
        memory_host: "m1".into(),
        bytes: GIB,
        bonded: false,
    };
    // Observer may read status but never attach.
    let resp = cp.handle(Request::Attach {
        token: observer.clone(),
        spec: spec.clone(),
    });
    assert!(matches!(resp, Response::Error { ref code, .. } if code == "forbidden"));
    // A made-up token is unauthorized.
    let resp = cp.handle(Request::Attach {
        token: thymesisflow::ctrlplane::auth::Token("forged".into()),
        spec,
    });
    assert!(matches!(resp, Response::Error { ref code, .. } if code == "unauthorized"));
    // Denials are visible in the audit state.
    assert!(cp.auth_mut().denials() >= 2);
}

#[test]
fn agents_refuse_configs_not_signed_by_the_control_plane() {
    let mut cp = plane();
    let admin = cp.auth_mut().issue_token(Role::Admin);
    let grant = cp
        .attach(
            &admin,
            AttachSpec {
                compute_host: "c1".into(),
                memory_host: "m1".into(),
                bytes: GIB,
                bonded: false,
            },
        )
        .unwrap();
    // The genuine config is accepted by an agent sharing the secret…
    let mut good_agent = NodeAgent::new(HostNode::new(NodeSpec::ac922("c1")), "integration-secret");
    good_agent.apply_compute(&grant.compute_config).unwrap();
    // …but an agent provisioned with a different trust anchor refuses,
    let mut foreign = NodeAgent::new(HostNode::new(NodeSpec::ac922("cx")), "other-secret");
    assert_eq!(
        foreign.apply_compute(&grant.compute_config),
        Err(AgentError::UntrustedConfig)
    );
    // …and a *tampered* config is refused even with the right secret
    // ("no malicious software can push illegal configurations").
    let mut tampered = grant.compute_config.clone();
    tampered.window_bytes *= 2;
    let mut agent = NodeAgent::new(HostNode::new(NodeSpec::ac922("c1")), "integration-secret");
    assert_eq!(
        agent.apply_compute(&tampered),
        Err(AgentError::UntrustedConfig)
    );
    let mut tampered_mem = grant.memory_config;
    tampered_mem.ea_base += 4096;
    assert_eq!(
        agent.apply_memory(&tampered_mem),
        Err(AgentError::UntrustedConfig)
    );
}

#[test]
fn audit_trail_covers_the_whole_lifecycle() {
    let mut cp = plane();
    let admin = cp.auth_mut().issue_token(Role::Admin);
    let grant = cp
        .attach(
            &admin,
            AttachSpec {
                compute_host: "c1".into(),
                memory_host: "m1".into(),
                bytes: GIB,
                bonded: false,
            },
        )
        .unwrap();
    cp.detach(&admin, grant.flow).unwrap();
    let events: Vec<&str> = cp.audit().iter().map(|e| e.event.as_str()).collect();
    assert!(events.iter().any(|e| e.starts_with("register_host c1")));
    assert!(events.iter().any(|e| e.starts_with("add_cable")));
    assert!(events.iter().any(|e| e.contains("attach")));
    assert!(events.iter().any(|e| e.contains("detach")));
    // Sequence numbers are dense and ordered.
    for (i, e) in cp.audit().iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
}

#[test]
fn donor_capacity_is_a_hard_limit_through_the_api() {
    let mut cp = plane();
    let admin = cp.auth_mut().issue_token(Role::Admin);
    let spec = |bytes| AttachSpec {
        compute_host: "c1".into(),
        memory_host: "m1".into(),
        bytes,
        bonded: false,
    };
    cp.attach(&admin, spec(512 * GIB)).unwrap();
    let resp = cp.handle(Request::Attach {
        token: admin,
        spec: spec(GIB),
    });
    assert!(matches!(resp, Response::Error { ref code, .. } if code == "donor_exhausted"));
}
