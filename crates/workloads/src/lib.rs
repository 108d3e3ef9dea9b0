//! Application models for the ThymesisFlow evaluation (paper §VI).
//!
//! The paper evaluates four application classes, each "occupying a
//! large-enough area on the resource proportionality continuum":
//!
//! * [`stream`] — sustainable memory bandwidth (STREAM, Fig. 5);
//! * [`ycsb`] + [`voltdb`] — an in-memory NewSQL database driven by the
//!   Yahoo! Cloud Serving Benchmark (Figs. 6 and 7);
//! * [`memcached`] — in-memory application-level caching under the
//!   Facebook "ETC" workload model (Fig. 8);
//! * [`search`] — a sharded search/analytics engine driven by the
//!   ESRally "nested" track (Fig. 9).
//!
//! All workloads run against a calibrated
//! [`MemoryModel`](thymesisflow_core::memmodel::MemoryModel) for each of
//! the five system configurations of §VI-A; [`loadgen`] provides the
//! shared closed-loop client + multi-worker server queueing simulator,
//! and [`runner`] the convenience front end.
//!
//! [`fleet`] scales the mix to rack reality: thousands of zipf-skewed
//! clients dealt across contracted leases on a 4×4 torus, with diurnal
//! load phases, tenant churn, a calibrated chaos ladder, and a
//! deterministic schema-v1 fleet report (see `DESIGN.md` §16).

pub mod fleet;
pub mod loadgen;
pub mod memcached;
pub mod runner;
pub mod search;
pub mod stream;
pub mod voltdb;
pub mod ycsb;

pub use runner::WorkloadRunner;
