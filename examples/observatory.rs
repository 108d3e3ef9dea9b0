//! Observatory: the fleet observability plane on a contended 4×4 torus
//! rack — continuous telemetry windows, a link-name congestion heatmap,
//! per-lease SLO monitors and the causal event journal, all under a
//! mid-workload link cut.
//!
//! Four scenes:
//!
//! 1. **Contend** — four leases borrow through `n00`; two of them hammer
//!    the same two-hop route, so its links saturate while the rest of
//!    the torus idles. Each 20 µs window drains before the next, so its
//!    latency measures contention, not backlog. A [`Recorder`] polls the
//!    telemetry registry on a fixed sim-time cadence the whole way.
//! 2. **Heatmap** — the [`CongestionReport`] ranks every cabled link by
//!    utilization / credit-stall time / carried frames; the hottest link
//!    must be one the contended route crosses.
//! 3. **Cut** — the steady windows calibrate the victim lease's p99
//!    budget and one more healthy window stays inside it; then chaos
//!    kills the contended route's interior link. The torus re-routes,
//!    the disruption blows the budget, and [`Rack::evaluate_slos`]
//!    turns that into a typed breach plus a journal record.
//! 4. **Export** — the Prometheus exposition and the merged JSONL
//!    journal land in `target/` where `ci.sh` validates them.
//!
//! ```text
//! cargo run --example observatory
//! ```

use std::error::Error;

use thymesisflow::core::attach::{AttachRequest, LeaseId};
use thymesisflow::core::fabric::{ChaosPlan, JournalKind, PathId, SloSpec};
use thymesisflow::core::rack::{NodeConfig, Rack, RackBuilder};
use thymesisflow::simkit::obs::{prometheus_exposition, Recorder};
use thymesisflow::simkit::time::SimTime;
use thymesisflow::simkit::units::GIB;

fn node(r: usize, c: usize) -> String {
    format!("n{r}{c}")
}

/// One closed-loop window; `Rack::run_fleet_streams` drains it before
/// returning, so its latencies measure contention and disruption, not
/// backlog carried into the next window.
const WINDOW: SimTime = SimTime::from_us(20);

/// Runs one [`WINDOW`] on `n00`'s fabric and returns `path`'s p99 over
/// it.
fn window_p99(
    rack: &mut Rack,
    loads: &[(LeaseId, u32, u32)],
    path: PathId,
) -> Result<u64, Box<dyn Error>> {
    let before = rack.fabric("n00").ok_or("fabric is live")?.completions(path)?.clone();
    rack.run_fleet_streams(loads, WINDOW, 1)?;
    let fabric = rack.fabric("n00").ok_or("fabric is live")?;
    Ok(fabric.completions(path)?.subtract(&before).quantile(0.99))
}

fn main() -> Result<(), Box<dyn Error>> {
    // ---- a 4x4 torus rack, cabled row-wise and column-wise ------------
    let mut builder = RackBuilder::new();
    for r in 0..4 {
        for c in 0..4 {
            builder = builder.node(NodeConfig::ac922(&node(r, c)));
        }
    }
    for r in 0..4 {
        for c in 0..4 {
            builder = builder
                .cable(&node(r, c), &node(r, (c + 1) % 4))
                .cable(&node(r, c), &node((r + 1) % 4, c));
        }
    }
    let mut rack = builder.build()?;
    rack.set_observability(true); // fabric journals on from first attach

    // ---- scene 1: four leases, two of them fighting for one route -----
    // `victim` and `rival` borrow from the same two-hop-distant donor,
    // so every frame of theirs crosses the same two cabled pairs, and
    // between them they hold both cables of each. `near` borrows from
    // the route's first hop; with that pair full, the control plane
    // detours it around. `control` borrows down the orthogonal column
    // and should never breach.
    let victim = rack.attach_with_slo(
        AttachRequest::new("n00", "n02", 8 * GIB),
        SloSpec::new().availability(0.999),
    )?;
    let rival = rack.attach(AttachRequest::new("n00", "n02", 8 * GIB))?;
    let control = rack.attach_with_slo(
        AttachRequest::new("n00", "n20", 8 * GIB),
        SloSpec::new().availability(0.999),
    )?;

    let vpath = rack.lease_path(victim.id()).expect("victim lease is live");
    let fabric = rack.fabric("n00").expect("attaches built the fabric");
    let link_names = fabric.topology_link_names();
    let route = fabric.topology_route(vpath).expect("victim lease is routed");
    let route_links: Vec<String> =
        route.links.iter().map(|&l| link_names[l].clone()).collect();
    let via: Vec<String> = route_links[0].split('-').map(str::to_string).collect();
    let near = rack.attach(AttachRequest::new("n00", &via[1], 8 * GIB))?;
    let fabric = rack.fabric("n00").expect("attaches built the fabric");
    let near_route = fabric
        .topology_route(rack.lease_path(near.id()).expect("near lease is live"))
        .expect("near lease is routed");
    let near_links: Vec<String> =
        near_route.links.iter().map(|&l| link_names[l].clone()).collect();
    println!("== scene 1: contend ==");
    println!(
        "torus 4x4: {} cabled pairs; {} and {} contend over {} ({} hops), {} idles on the column",
        link_names.len(),
        victim.id(),
        rival.id(),
        route_links.join(" + "),
        route.hops(),
        control.id(),
    );
    println!(
        "{} borrows from {}, one hop out, but both cables are taken: detoured over {}",
        near.id(),
        via[1],
        near_links.join(" + "),
    );

    rack.lease_fabric(victim.id())?.0.set_telemetry(true);
    let mut recorder = Recorder::new(WINDOW, 16);
    let loads = [
        (victim.id(), 8, 32),
        (rival.id(), 8, 32),
        (near.id(), 1, 2),
        (control.id(), 1, 2),
    ];
    for _segment in 0..5 {
        rack.run_fleet_streams(&loads, WINDOW, 1)?;
        let fabric = rack.fabric_mut("n00").expect("fabric is live");
        let now = fabric.now();
        if recorder.due(now) {
            let snap = fabric.telemetry_snapshot();
            recorder.record(snap);
        }
        let breaches = rack.evaluate_slos()?;
        assert!(breaches.is_empty(), "steady state must not breach: {breaches:?}");
    }
    let retired: Vec<String> = recorder
        .deltas("fabric.loads.retired")
        .iter()
        .map(|(at, d)| format!("{}us:+{d}", at.as_ns() / 1_000))
        .collect();
    println!(
        "recorder: {} windows every {}, loads retired per window: {}",
        recorder.windows().count(),
        recorder.period(),
        retired.join(" "),
    );

    // ---- scene 2: the heatmap agrees with where the fight is ----------
    println!("\n== scene 2: heatmap ==");
    let report = rack
        .congestion_report("n00")
        .expect("borrower fabric reports congestion");
    print!("{}", report.render());
    let hottest = report.hottest().expect("traffic flowed").name.clone();
    assert!(
        route_links.contains(&hottest),
        "hottest link {hottest} must sit on the contended route {route_links:?}",
    );
    println!("hottest link: {hottest} -- on the contended route, as injected");

    // ---- scene 3: cut the contended interior link under SLO -----------
    // Calibrate the p99 budget from the steady-state windows with 25%
    // headroom. One more healthy window must stay inside it; the cut's
    // window must blow it (frames lost with the cut link are replayed
    // down a longer detour).
    println!("\n== scene 3: cut ==");
    let fabric = rack.fabric("n00").expect("fabric is live");
    let steady_p99 = fabric.completions(vpath)?.quantile(0.99);
    let budget = SimTime::from_ns(steady_p99 * 5 / 4);
    // The new contract judges only windows that run under it, never the
    // steady history that set it.
    rack.set_lease_slo(
        victim.id(),
        SloSpec::new().p99(budget).availability(0.999),
    )?;
    let healthy_p99 = window_p99(&mut rack, &loads, vpath)?;
    let breaches = rack.evaluate_slos()?;
    assert!(
        breaches.is_empty(),
        "a healthy window must stay inside the budget: {breaches:?}"
    );
    let interior = route_links[1].clone();
    println!(
        "steady p99 {steady_p99} ns -> contracted budget {} ns; next healthy window p99 {healthy_p99} ns",
        budget.as_ns(),
    );
    {
        let fabric = rack.fabric_mut("n00").expect("fabric is live");
        let at = fabric.now() + SimTime::from_us(5);
        fabric.schedule_chaos(&ChaosPlan::new().link_down_named(at, &interior));
    }
    let cut_p99 = window_p99(&mut rack, &loads, vpath)?;
    println!("cutting '{interior}' 5 us into the next window: p99 {cut_p99} ns");
    {
        let fabric = rack.fabric_mut("n00").expect("fabric is live");
        if recorder.due(fabric.now()) {
            let snap = fabric.telemetry_snapshot();
            recorder.record(snap);
        }
    }
    let breaches = rack.evaluate_slos()?;
    assert!(
        breaches.iter().any(|b| b.lease == victim.id().0),
        "the lease crossing the cut link must breach, got {breaches:?}",
    );
    assert!(
        breaches.iter().all(|b| b.lease != control.id().0),
        "the column lease never crossed the cut link: {breaches:?}",
    );
    for b in &breaches {
        println!("breach: lease#{} at {} ns: {}", b.lease, b.at.as_ns(), b.kind);
    }
    let report = rack.congestion_report("n00").expect("fabric is live");
    let cut = report.get(&interior).expect("cut link is still a row");
    assert!(cut.down, "the heatmap must flag the cut link DOWN");
    println!("heatmap now flags {interior} DOWN; detour re-routed the lease");

    // ---- scene 4: export what the fleet would scrape ------------------
    println!("\n== scene 4: export ==");
    let snap = rack
        .fabric_mut("n00")
        .expect("fabric is live")
        .telemetry_snapshot();
    let exposition = prometheus_exposition(&snap);
    let prom_path = std::path::Path::new("target").join("observatory.prom");
    std::fs::write(&prom_path, &exposition)?;

    let fabric_journal = rack
        .fabric("n00")
        .and_then(|f| f.journal())
        .expect("observability was enabled");
    let mut jsonl = fabric_journal.to_jsonl();
    jsonl.push_str(&rack.journal().to_jsonl());
    let journal_path = std::path::Path::new("target").join("observatory.journal.jsonl");
    std::fs::write(&journal_path, &jsonl)?;

    println!(
        "prometheus: {} metric families -> {}",
        exposition.lines().filter(|l| l.starts_with("# TYPE")).count(),
        prom_path.display(),
    );
    println!(
        "journal: {} fabric + {} rack records -> {}",
        fabric_journal.len(),
        rack.journal().len(),
        journal_path.display(),
    );
    assert!(
        fabric_journal.of_kind(JournalKind::Reroute).next().is_some(),
        "the cut must have journaled a re-route",
    );
    assert!(
        rack.journal().of_kind(JournalKind::SloBreach).next().is_some(),
        "the breach must have journaled",
    );
    println!("rack journal tail:");
    for rec in rack.journal().tail(4) {
        let lease = rec.lease.map(|l| format!(" lease#{l}")).unwrap_or_default();
        println!("  #{} @ {} ns {}{}: {}", rec.seq, rec.at.as_ns(), rec.kind, lease, rec.detail);
    }
    println!("fabric journal tail:");
    for rec in fabric_journal.tail(4) {
        let links = if rec.links.is_empty() {
            String::new()
        } else {
            format!(" [{}]", rec.links.join(", "))
        };
        println!("  #{} @ {} ns {}{}: {}", rec.seq, rec.at.as_ns(), rec.kind, links, rec.detail);
    }

    println!("\nobservatory: telemetry, heatmap, SLOs and journal agree on one story");
    Ok(())
}
