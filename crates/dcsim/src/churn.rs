//! Tenant churn schedules for fleet-scale scenarios.
//!
//! The fleet harness (`workloads::fleet`) runs a rack through a short
//! ladder of diurnal phases; real racks also see tenants *arrive and
//! leave* while the phases play out. This module maps the synthetic
//! cluster trace of [`trace`](crate::trace) — Poisson arrivals,
//! lognormal durations and memory demands — onto a phase grid: each
//! task becomes a [`ChurnTenant`] that attaches at the start of its
//! arrival phase and detaches at the start of its departure phase.
//!
//! The mapping is a pure, deterministic function of `(params, seed)`:
//! trace seconds are rescaled so the generated tasks span the whole
//! phase ladder, which keeps the churn *shape* (who overlaps whom, who
//! outlives the run) faithful to the trace while making the schedule
//! independent of how long a phase simulates.

use serde::{Deserialize, Serialize};

use crate::trace::{TraceGenerator, TraceParams};

/// One churning tenant, normalized onto a scenario's phase grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnTenant {
    /// Trace task id (stable across runs for one `(params, seed)`).
    pub id: u64,
    /// Phase index at whose start the tenant attaches.
    pub arrive_phase: usize,
    /// Phase index at whose start the tenant detaches. Tenants whose
    /// trace departure lands past the ladder get `phases` here — they
    /// outlive the run and are never detached.
    pub depart_phase: usize,
    /// Memory demand as a fraction of one machine (0..=0.9).
    pub mem_fraction: f64,
}

/// Deals `tenants` synthetic tasks onto a ladder of `phases` phases.
///
/// Arrival seconds are rescaled so the busiest stretch of the trace
/// covers the ladder: the first task arrives in phase 0 and the last
/// arrival lands in the final phase. Departures keep their traced
/// durations under the same scale, clamping to `phases` (= "outlives
/// the run"). The result is sorted by `(arrive_phase, id)`.
///
/// Returns an empty schedule when `tenants` or `phases` is zero.
pub fn phase_churn(
    params: &TraceParams,
    seed: u64,
    tenants: usize,
    phases: usize,
) -> Vec<ChurnTenant> {
    if tenants == 0 || phases == 0 {
        return Vec::new();
    }
    let mut generator = TraceGenerator::new(params.clone(), seed);
    let tasks = generator.generate(tenants);
    let first = tasks.first().map(|t| t.arrive_s).unwrap_or(0.0);
    let last = tasks.last().map(|t| t.arrive_s).unwrap_or(0.0);
    let span = (last - first).max(f64::MIN_POSITIVE);
    #[allow(clippy::cast_precision_loss)]
    let scale = phases as f64 / span;
    let clamp_phase = |s: f64| -> usize {
        let normalized = (s - first) * scale;
        if normalized <= 0.0 {
            0
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let p = normalized.floor() as usize;
            p.min(phases)
        }
    };
    let mut out: Vec<ChurnTenant> = tasks
        .iter()
        .map(|t| {
            let arrive_phase = clamp_phase(t.arrive_s).min(phases - 1);
            let depart_phase = clamp_phase(t.depart_s).max(arrive_phase + 1);
            ChurnTenant {
                id: t.id,
                arrive_phase,
                depart_phase,
                mem_fraction: t.mem,
            }
        })
        .collect();
    out.sort_by_key(|t| (t.arrive_phase, t.id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_is_deterministic_and_spans_the_ladder() {
        let params = TraceParams::default();
        let a = phase_churn(&params, 7, 40, 4);
        let b = phase_churn(&params, 7, 40, 4);
        assert_eq!(a, b, "same (params, seed) must deal the same schedule");
        assert_eq!(a.len(), 40);
        assert_eq!(a.first().map(|t| t.arrive_phase), Some(0));
        assert!(
            a.iter().any(|t| t.arrive_phase >= 2),
            "rescaling must spread arrivals across the ladder"
        );
    }

    #[test]
    fn tenants_depart_after_they_arrive_and_clamp_to_the_ladder() {
        let params = TraceParams::default();
        for t in phase_churn(&params, 11, 64, 3) {
            assert!(t.arrive_phase < 3);
            assert!(t.depart_phase > t.arrive_phase);
            assert!(t.depart_phase <= 3);
            assert!(t.mem_fraction > 0.0 && t.mem_fraction <= 0.9);
        }
    }

    #[test]
    fn empty_inputs_deal_empty_schedules() {
        let params = TraceParams::default();
        assert!(phase_churn(&params, 1, 0, 4).is_empty());
        assert!(phase_churn(&params, 1, 8, 0).is_empty());
    }
}
