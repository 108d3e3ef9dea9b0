//! The online event loop driving a data centre through a trace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::metrics::{MetricAccumulator, UtilSnapshot};
use crate::model::DataCentre;
use crate::trace::{TraceEvent, TraceGenerator, TraceParams};

/// Mean task duration implied by [`TraceParams`] (lognormal mean).
pub(crate) fn mean_duration_s(p: &TraceParams) -> f64 {
    (p.duration_mu + p.duration_sigma * p.duration_sigma / 2.0).exp()
}

/// Mean per-task CPU demand implied by [`TraceParams`].
pub(crate) fn mean_cpu(p: &TraceParams) -> f64 {
    (p.cpu_mu + p.cpu_sigma * p.cpu_sigma / 2.0).exp()
}

/// Derives trace parameters that drive `units` unit-capacity modules to
/// the target steady-state CPU and memory utilization (the Google trace
/// runs its cluster CPU-hot and memory-cooler, which is what strands
/// memory in the fixed model).
pub fn params_for_utilization(units: usize, cpu_util: f64, mem_util: f64) -> TraceParams {
    let mut p = TraceParams::default();
    let concurrent = units as f64 * cpu_util / mean_cpu(&p);
    p.mean_interarrival_s = mean_duration_s(&p) / concurrent;
    // Memory/CPU ratio mean hits the memory target.
    let ratio_mean = mem_util / cpu_util;
    p.ratio_mu = ratio_mean.ln() - p.ratio_sigma * p.ratio_sigma / 2.0;
    p
}

/// Ordered departure entry.
#[derive(Debug, PartialEq)]
struct Departure(f64, u64);
impl Eq for Departure {}
impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Departure {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("finite times")
            .then(self.1.cmp(&other.1))
    }
}

/// Replays `tasks` arrivals (with their departures) through a data
/// centre, sampling the utilization snapshot every `sample_every`
/// arrivals once the warm-up fraction has passed.
pub fn run_trace<D: DataCentre>(
    dc: &mut D,
    generator: &mut TraceGenerator,
    tasks: usize,
    warmup_fraction: f64,
    sample_every: usize,
) -> (UtilSnapshot, MetricAccumulator) {
    let mut departures: BinaryHeap<Reverse<Departure>> = BinaryHeap::new();
    let mut acc = MetricAccumulator::new();
    let warmup = (tasks as f64 * warmup_fraction) as usize;
    for i in 0..tasks {
        let ev: TraceEvent = generator.next_event();
        // Retire everything departing before this arrival.
        while let Some(Reverse(Departure(t, id))) = departures.peek() {
            if *t > ev.arrive_s {
                break;
            }
            dc.release(*id);
            let _ = t;
            departures.pop();
        }
        let placed = dc.allocate(&ev);
        acc.record_placement(placed);
        if placed {
            departures.push(Reverse(Departure(ev.depart_s, ev.id)));
        }
        if i >= warmup && i % sample_every == 0 {
            acc.add(dc.snapshot());
        }
    }
    (acc.average(), acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DisaggregatedDataCentre, FixedDataCentre};

    #[test]
    fn utilization_targets_are_hit() {
        let units = 60;
        let params = params_for_utilization(units, 0.83, 0.70);
        let mut gen = TraceGenerator::new(params, 3);
        let mut dc = FixedDataCentre::new(units);
        let (snap, acc) = run_trace(&mut dc, &mut gen, 12_000, 0.5, 25);
        // CPU left over (frag + off) should hover near 1 - 0.83.
        let cpu_unused = snap.cpu_frag + snap.cpu_off;
        assert!(
            (0.10..=0.30).contains(&cpu_unused),
            "cpu unused {cpu_unused} (frag {}, off {})",
            snap.cpu_frag,
            snap.cpu_off
        );
        // Rejections stay rare at this load.
        assert!(acc.rejection_ratio() < 0.08, "{}", acc.rejection_ratio());
    }

    #[test]
    fn fig1_direction_disaggregation_defragments() {
        let units = 60;
        let params = params_for_utilization(units, 0.83, 0.70);
        let mut fixed = FixedDataCentre::new(units);
        let mut gen = TraceGenerator::new(params.clone(), 7);
        let (fixed_snap, _) = run_trace(&mut fixed, &mut gen, 12_000, 0.5, 25);
        let mut disagg = DisaggregatedDataCentre::new(units);
        let mut gen = TraceGenerator::new(params, 7);
        let (dis_snap, _) = run_trace(&mut disagg, &mut gen, 12_000, 0.5, 25);
        // The Fig. 1 claims, directionally:
        assert!(
            dis_snap.cpu_frag < fixed_snap.cpu_frag,
            "cpu frag: disagg {} vs fixed {}",
            dis_snap.cpu_frag,
            fixed_snap.cpu_frag
        );
        assert!(
            dis_snap.mem_frag < fixed_snap.mem_frag,
            "mem frag: disagg {} vs fixed {}",
            dis_snap.mem_frag,
            fixed_snap.mem_frag
        );
        assert!(
            dis_snap.mem_off > fixed_snap.mem_off,
            "mem off: disagg {} vs fixed {}",
            dis_snap.mem_off,
            fixed_snap.mem_off
        );
        assert!(
            dis_snap.cpu_off >= fixed_snap.cpu_off,
            "cpu off: disagg {} vs fixed {}",
            dis_snap.cpu_off,
            fixed_snap.cpu_off
        );
    }

    #[test]
    fn departures_retire_in_order() {
        let mut heap: BinaryHeap<Reverse<Departure>> = BinaryHeap::new();
        heap.push(Reverse(Departure(3.0, 3)));
        heap.push(Reverse(Departure(1.0, 1)));
        heap.push(Reverse(Departure(2.0, 2)));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|Reverse(d)| d.1)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
