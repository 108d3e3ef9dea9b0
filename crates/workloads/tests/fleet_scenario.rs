//! Fleet-scale SLO scenario gates (ISSUE 10 tentpole).
//!
//! Three properties hold the harness together:
//!
//! 1. the undisturbed control arm finishes with **zero** breaches —
//!    calibrated budgets are not trigger-happy;
//! 2. the chaos arm breaches **by design**: the crashed donor's leases
//!    lose availability and/or the cut hot route blows its calibrated
//!    latency budget;
//! 3. the whole report is **bit-identical** between 1 and 4 partition
//!    workers — fleet parallelism must not leak into the physics.

use workloads::fleet::{FleetReport, FleetScenario};

const KNOWN_KINDS: [&str; 3] = ["p99", "p999", "availability"];

fn run(scenario: &FleetScenario, workers: usize) -> FleetReport {
    scenario
        .run(workers)
        .unwrap_or_else(|e| panic!("{} runs: {e:?}", scenario.name))
}

#[test]
fn control_run_finishes_with_zero_breaches() {
    let report = run(&FleetScenario::control(42), 1);
    assert!(
        report.breaches.is_empty(),
        "undisturbed control arm must not breach: {:?}",
        report.breaches
    );
    assert!(report.phases.iter().all(|p| p.breaches == 0));
    assert!(report.phases.iter().all(|p| p.chaos.is_empty()));
    // Traffic genuinely flowed everywhere.
    assert!(report.phases.iter().all(|p| p.completed > 0));
    assert!(report.leases.iter().all(|l| l.completed > 0));
    #[allow(clippy::float_cmp)] // exact: with no fault every load completes, 1.0 exactly
    let available = report.leases.iter().all(|l| l.availability == 1.0);
    assert!(available, "no chaos, no faults");
}

#[test]
fn chaos_ladder_breaches_the_calibrated_contracts() {
    let scenario = FleetScenario::quick(42);
    assert!(scenario.clients >= 1_000, "fleet floor is 1000 clients");
    let report = run(&scenario, 1);

    // The ladder ran all three phases over the full torus.
    assert_eq!(report.topology, "4x4-torus");
    assert_eq!(report.phases.len(), 3);
    let peak = &report.phases[1];
    assert_eq!(peak.name, "peak");
    assert_eq!(peak.chaos.len(), 3, "all three rungs landed: {:?}", peak.chaos);
    assert!(peak.chaos.iter().any(|c| c.starts_with("link_down:")));
    assert!(peak.chaos.iter().any(|c| c.starts_with("lane_fail:")));
    assert!(peak.chaos.iter().any(|c| c.starts_with("donor_crash:n23")));

    // The calibrated expected breach: chaos phases breach, steady does not.
    assert!(
        report.breaches_in("steady").is_empty(),
        "pre-chaos phase must hold its contracts"
    );
    assert!(
        !report.breaches.is_empty(),
        "the chaos ladder must produce at least one breach"
    );
    // The donor crash costs its leases availability.
    assert!(
        report
            .breaches
            .iter()
            .any(|b| b.kind == "availability"),
        "crashed donor must show up as an availability breach: {:?}",
        report.breaches
    );
    // Every breach speaks the closed schema vocabulary and carries
    // a phase from the ladder.
    for b in &report.breaches {
        assert!(KNOWN_KINDS.contains(&b.kind.as_str()), "unknown kind {:?}", b.kind);
        assert!(report.phases.iter().any(|p| p.name == b.phase));
        assert!(!b.detail.is_empty());
    }
    // Ledger and per-phase roll-up agree.
    let total: u64 = report.phases.iter().map(|p| p.breaches).sum();
    assert_eq!(total, report.breaches.len() as u64);

    // Congestion observability saw the traffic.
    let hottest = report.hottest.as_ref().expect("traffic flowed");
    assert!(hottest.frames > 0);
    assert!(hottest.utilization > 0.0);

    // The hot lease's recorder windows saw retirements.
    assert!(!report.hot_lease_retired_per_window.is_empty());
    assert!(report.hot_lease_retired_per_window.iter().any(|&d| d > 0));
}

#[test]
fn fleet_report_is_bit_identical_across_worker_counts() {
    let scenario = FleetScenario::quick(1234);
    let solo = run(&scenario, 1).to_json();
    let four = run(&scenario, 4).to_json();
    assert_eq!(solo, four, "worker count must not leak into the report");
}

#[test]
fn fleet_report_schema_has_the_gated_fields() {
    let report = run(&FleetScenario::quick(7), 2);
    let value = report.to_value();
    assert!(
        matches!(value.get("schema"), Some(serde::Value::UInt(1))),
        "schema field must pin version 1"
    );
    assert_eq!(
        value.get("scenario").and_then(|v| v.as_str()),
        Some("fleet-slo-quick")
    );
    for key in ["leases", "phases", "breaches"] {
        assert!(
            value.get(key).and_then(|v| v.as_seq()).is_some(),
            "report.{key} must be a sequence"
        );
    }
    let leases = value.get("leases").and_then(|v| v.as_seq()).unwrap();
    assert_eq!(leases.len(), 8, "eight base leases");
    for lease in leases {
        for key in [
            "lease",
            "class",
            "borrower",
            "donor",
            "clients",
            "p99_ns",
            "p999_ns",
            "availability",
            "completed",
            "faulted",
        ] {
            assert!(lease.get(key).is_some(), "lease row misses {key}");
        }
    }
    assert!(value.get("hottest_link").is_some());
    assert!(value.get("churn").is_some());
    // JSON round-trips through the vendored serializer.
    let json = report.to_json();
    assert!(json.ends_with('\n'));
    assert!(json.contains("\"schema\":1"));
}
