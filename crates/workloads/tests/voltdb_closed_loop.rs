//! A closed-loop event simulation of the VoltDB server, cross-checking
//! the closed-form model in `workloads::voltdb`.
//!
//! Real YCSB operations from the generator run on simulated partition
//! executors, one outstanding transaction per partition, each priced
//! with the analytic model's per-operation cost. The two must agree on
//! throughput, and the simulation adds per-transaction latency
//! distributions. The paper's stall, UCC and IPC figures are checked on
//! the closed form itself (`voltdb::tests`).

use simkit::event::EventQueue;
use simkit::stats::Histogram;
use simkit::time::SimTime;
use thymesisflow_core::config::SystemConfig;
use thymesisflow_core::memmodel::MemoryModel;
use workloads::runner::WorkloadRunner;
use workloads::voltdb::{OpCost, VoltDb, VoltDbParams};
use workloads::ycsb::{Op, YcsbGenerator, YcsbWorkload};

/// Result of one simulated run.
struct SimReport {
    committed: u64,
    throughput_ops: f64,
    /// Per-transaction latency (dispatch + execution), nanoseconds.
    latency_ns: Histogram,
}

enum Ev {
    /// The dispatcher hands a transaction to a partition.
    Dispatch { partition: usize },
    /// A partition finishes executing a transaction.
    Done { partition: usize, issued: SimTime },
}

/// The simulated database server.
struct VoltDbSim {
    model: MemoryModel,
    partitions: usize,
}

impl VoltDbSim {
    fn new(config: SystemConfig, partitions: usize) -> Self {
        VoltDbSim {
            model: WorkloadRunner::new().model(config),
            partitions,
        }
    }

    /// Busy time of one operation (compute plus memory stalls), priced
    /// like the analytic model.
    fn op_busy(&self, op: &Op) -> SimTime {
        let cost = match op {
            Op::Read(_) => VoltDb::op_cost(true, false),
            Op::Update(_) | Op::Insert(_) => VoltDb::op_cost(false, true),
            Op::ReadModifyWrite(_) => VoltDb::op_cost(true, true),
            Op::Scan(_, n) => OpCost {
                instructions: 40_000.0 + 2_500.0 * *n as f64,
                lines: 30.0 * *n as f64,
            },
        };
        let p = &VoltDbParams::PAPER;
        let compute = (cost.instructions / p.ipc0) as u64;
        let lat = self.model.avg_load_latency_ns();
        let local = self.model.params().local_load_latency().as_ns_f64();
        let eff_overlap = p.overlap * (lat / local).max(1.0).powf(0.45);
        let stall = (cost.lines * p.miss_ratio * lat * p.ghz / eff_overlap) as u64;
        SimTime::from_ns_f64((compute + stall) as f64 / p.ghz)
    }

    /// Runs `transactions` operations of a workload; the dispatcher
    /// serializes at the analytic model's per-partition rate.
    fn run(&self, workload: YcsbWorkload, transactions: u64, seed: u64) -> SimReport {
        let mut gen = YcsbGenerator::new(workload, 1_000_000, seed);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut partition_free = vec![SimTime::ZERO; self.partitions];
        let mut latency = Histogram::new();
        let mut committed = 0u64;
        // Per-transaction coordination grows with the partition count
        // (the analytic model's dispatch term) and occupies the
        // partition while it waits.
        let coordination = SimTime::from_ns_f64(
            VoltDbParams::PAPER.dispatch_us_per_partition * self.partitions as f64 * 1000.0,
        );
        for partition in 0..self.partitions {
            queue.schedule(SimTime::ZERO, Ev::Dispatch { partition });
        }
        let mut dispatched = 0u64;
        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::Dispatch { partition } => {
                    if dispatched >= transactions {
                        continue;
                    }
                    dispatched += 1;
                    let busy = self.op_busy(&gen.next_op());
                    let start = partition_free[partition].max(now);
                    let done = start + coordination + busy;
                    partition_free[partition] = done;
                    queue.schedule(done, Ev::Done {
                        partition,
                        issued: now,
                    });
                }
                Ev::Done { partition, issued } => {
                    committed += 1;
                    latency.record((queue.now() - issued).as_ns());
                    queue.schedule(queue.now(), Ev::Dispatch { partition });
                }
            }
        }
        SimReport {
            committed,
            throughput_ops: committed as f64 / queue.now().as_secs_f64(),
            latency_ns: latency,
        }
    }
}

#[test]
fn simulation_commits_every_transaction() {
    let r = VoltDbSim::new(SystemConfig::Local, 8).run(YcsbWorkload::A, 2_000, 1);
    assert_eq!(r.committed, 2_000);
    assert!(r.throughput_ops > 0.0);
    assert_eq!(r.latency_ns.count(), 2_000);
}

#[test]
fn simulation_agrees_with_the_analytic_model() {
    // Throughput from the event simulation should land within ~25% of
    // the closed-form prediction for non-scan workloads.
    for config in [SystemConfig::Local, SystemConfig::SingleDisaggregated] {
        for parts in [4u32, 32] {
            let model = WorkloadRunner::new().model(config);
            let analytic = VoltDb::new(model, parts).throughput_ops(YcsbWorkload::A);
            let sim = VoltDbSim::new(config, parts as usize)
                .run(YcsbWorkload::A, 4_000, 2)
                .throughput_ops;
            let rel = (sim - analytic).abs() / analytic;
            assert!(
                rel < 0.25,
                "{config}@{parts}: sim {sim:.0} vs analytic {analytic:.0} ({rel:.2})"
            );
        }
    }
}

#[test]
fn disaggregation_fattens_transaction_latency() {
    let local = VoltDbSim::new(SystemConfig::Local, 16).run(YcsbWorkload::A, 3_000, 4);
    let remote =
        VoltDbSim::new(SystemConfig::SingleDisaggregated, 16).run(YcsbWorkload::A, 3_000, 4);
    assert!(remote.latency_ns.mean() > local.latency_ns.mean());
    assert!(remote.latency_ns.quantile(0.9) > local.latency_ns.quantile(0.9));
}
