#!/usr/bin/env bash
# Full verification pipeline: build, tests, domain lints, sanitizers.
# Everything here must pass before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo check --workspace --all-targets (benches, examples, tests)"
# `cargo test` skips the harness = false benches, so this is the only
# step that compiles most of them.
cargo check --workspace --all-targets

echo "==> cargo clippy --workspace --all-targets (first-party crates)"
# The vendor/ stand-ins do not opt into the workspace lints (vendored
# proptest's `flag || !flag` trips a default-deny lint), so they are
# left out. unwrap_used, expect_used and cast_possible_truncation stay
# advisory, as the manifest declares them: tflint TF004/TF005 enforce
# them with datapath scoping and a test-code exemption.
cargo clippy --workspace --all-targets \
    --exclude criterion --exclude proptest --exclude rand \
    --exclude serde --exclude serde_derive --exclude serde_json -- \
    -A clippy::unwrap_used -A clippy::expect_used -A clippy::cast_possible_truncation

echo "==> cargo doc --workspace --no-deps (rustdoc lints are errors under warnings = deny)"
# A deleted module leaves crate-doc links that only rustdoc resolves.
cargo doc --workspace --no-deps

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> tflint (workspace-aware static analysis + allow audit)"
cargo run -q -p tflint -- check --audit-allows

echo "==> tflint JSON report (schema-stable CI artifact)"
cargo run -q -p tflint -- check --format json --audit-allows > target/tflint.json
jq -e '.schema == 1 and .count == 0 and (.diagnostics | type == "array")' target/tflint.json > /dev/null
cargo run -q -p tflint -- rules > /dev/null

echo "==> sanitize feature (runtime conservation checkers)"
cargo test --features sanitize -p llc -p simkit -q

echo "==> figure harnesses (paper tables + shape assertions, release)"
# `cargo test` skips the harness = false benches and the check step
# above only compiles them, so their shape assertions run here: a change
# that moves a figure past the paper's shape fails the pipeline.
for harness in proto_datapath fig5_stream fig6_voltdb_profile fig7_ycsb_throughput fig8_memcached_cdf fig9_elasticsearch ablation_numa; do
    echo "--> bench: ${harness}"
    cargo bench -q -p bench --bench "${harness}" > /dev/null
done

echo "==> example smoke loop (release)"
for example in quickstart rack_orchestration failure_injection chaos_recovery cloud_workloads datacentre_motivation latency_breakdown rack_topologies observatory fleet_slo; do
    echo "--> example: ${example}"
    cargo run -q --release --example "${example}" > /dev/null
done

echo "==> latency breakdown artifacts (Chrome trace_event JSON parses)"
jq -e '.traceEvents | length > 0' target/latency_breakdown.trace.json > /dev/null

echo "==> observability artifacts (journal JSONL schema v1, Prometheus exposition)"
# Every journal line is one JSON object with the schema-v1 spine, and
# the run that wrote it must have journaled the chaos cut, a re-route,
# and an SLO breach.
jq -e -s 'length > 0 and all(.[]; (.seq | type == "number") and (.at_ns | type == "number") and (.kind | type == "string") and (.detail | type == "string"))' \
    target/observatory.journal.jsonl > /dev/null
jq -e -s 'map(.kind) | contains(["chaos", "reroute", "slo_breach"])' \
    target/observatory.journal.jsonl > /dev/null
grep -q '^# TYPE fabric_loads_retired counter' target/observatory.prom
grep -q '^# TYPE fabric_rtt_ns summary' target/observatory.prom

echo "==> fleet SLO artifacts (schema v1, closed breach vocabulary, calibrated breaches)"
# The chaos arm's report: schema-v1 spine, every breach kind from the
# closed {p99, p999, availability} vocabulary, at least one breach
# (the ladder is built to blow contracts), none of them in the
# pre-chaos steady phase, and all three chaos rungs on record.
jq -e '.schema == 1 and .topology == "4x4-torus" and (.clients >= 1000) and (.leases | length == 8) and (.phases | length == 3)' \
    target/fleet_slo.json > /dev/null
jq -e '[.breaches[].kind] | length > 0 and (all(.[]; . == "p99" or . == "p999" or . == "availability"))' \
    target/fleet_slo.json > /dev/null
jq -e '[.breaches[] | select(.phase == "steady")] | length == 0' \
    target/fleet_slo.json > /dev/null
jq -e '[.phases[] | select(.phase == "peak") | .chaos[]] | length == 3' \
    target/fleet_slo.json > /dev/null
jq -e '.hottest_link.frames > 0 and (.breaches | map(select(.kind == "availability")) | length >= 1)' \
    target/fleet_slo.json > /dev/null

echo "==> fleet scenario harness (control zero-breach, chaos calibrated breach, 1-vs-4 worker identity)"
cargo test -q -p workloads --test fleet_scenario

echo "==> chaos scenario smoke (link flap + donor crash, exactly-once asserts)"
cargo test -q -p thymesisflow-core --test chaos_sweep
# Loss alone: drops and CRC errors strand nothing and kill no live link.
cargo test -q -p thymesisflow-core --test loss_recovery
cargo test -q -p llc --test prop_loss_burst

echo "==> topology layer: degenerate parity + multi-hop properties + torus re-route"
cargo test -q -p thymesisflow-core --test topology_parity
cargo test -q -p thymesisflow-core --test topology_multihop

echo "==> partitioned engine 1-vs-N bit-equality (point_to_point, circuit_rack, chaos, topology cut)"
cargo test -q -p thymesisflow-core --test partitioned_determinism
cargo test -q -p simkit --test prop_partition

echo "==> engine throughput smoke (QUICK mode, writes target/BENCH_engine.quick.json)"
# The committed BENCH_engine.json holds full-mode numbers; refresh it
# with:  cargo bench -p bench --bench engine_throughput   (no QUICK).
QUICK=1 cargo bench -q -p bench --bench engine_throughput
jq -e '.telemetry_overhead.overhead_frac' target/BENCH_engine.quick.json > /dev/null
jq -e '.obs_overhead.overhead_frac' target/BENCH_engine.quick.json > /dev/null
jq -e '.engine_partitioned.scaling | length >= 3' target/BENCH_engine.quick.json > /dev/null
jq -e '.engine_topology.route_hops >= 2 and .engine_topology.per_hop_ns > 0' target/BENCH_engine.quick.json > /dev/null
jq -e '.fleet_slo.clients >= 1000 and .fleet_slo.breaches >= 1 and .fleet_slo.identical_across_workers == true' target/BENCH_engine.quick.json > /dev/null

echo "==> perfbench (its own workspace: unit tests + one short run per workload and seed)"
# perfbench builds against the crates by path from a separate
# workspace, so nothing above compiles it; a fabric API change that
# breaks the benchmark must fail here. Every workload runs at the
# default seed 1 and at the held-out seed 9001 (perfbench/NOTES.md),
# and its simulated digest must match the one pinned in
# ci/perfbench.digests: a change that moves a digest updates that file
# and says why in CHANGES.md.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
for seed in 1 9001; do
    for workload in stream_p2p torus_cut rack_churn; do
        echo "--> perfbench: ${workload} (seed ${seed})"
        gate='.correct and .failed == 0'
        # Engine state sized to pending work (slab event calendars,
        # sparse RMMU section tables, LLC buffers grown on demand) keeps
        # torus_cut near 4.3 MiB; calendars with one key buffer per
        # bucket and dense section tables took it to 6.2 MiB. Telemetry
        # sized to the live rack (flat snapshots and windows, link and
        # path metrics read from live state, one pointer per detached
        # link slot) keeps rack_churn near 4.8 MiB, where metrics
        # registered for every lease ever attached took it to 6.5.
        case "${workload}" in
            rack_churn) gate="${gate} and .metrics.peak_rss_mb.value < 6" ;;
            torus_cut) gate="${gate} and .metrics.peak_rss_mb.value < 5.5" ;;
        esac
        out=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "${workload}" --seed "${seed}" --seconds 1 --trace 0)
        tail -n 1 <<< "${out}" | jq -e "${gate}" > /dev/null
        got="${workload} ${seed} $(sed -n 's/^digest: //p' <<< "${out}")"
        want=$(grep "^${workload} ${seed} " ci/perfbench.digests || true)
        if [ "${got}" != "${want}" ]; then
            echo "perfbench digest differs from ci/perfbench.digests:" >&2
            echo "  pinned: ${want}" >&2
            echo "  run:    ${got}" >&2
            exit 1
        fi
    done
done

echo "ci: all gates passed"
