//! In-memory application-level caching: a Memcached model under the
//! Facebook "ETC" workload (paper §VI-E, Fig. 8).
//!
//! The paper's load generator follows the statistical models of
//! Atikoglu et al. ("Workload Analysis of a Large-Scale Key-Value
//! Store"): GET/SET ratio 30:1, zipf-distributed keys (exponent 1.0,
//! following Breslau et al.), a 10 GiB cache over a 15 GiB key-value
//! space, 64 closed-loop client threads, ~80–82% hit ratio.
//!
//! Two parts:
//!
//! * [`SlabCache`] — an actual LRU cache (scaled 1/48 to keep the
//!   simulation fast; hit ratios are preserved because zipf mass depends
//!   on the cache/keyspace *ratio*);
//! * [`MemcachedService`] — the per-request service model used by the
//!   closed-loop simulator: base processing + the memory lines a GET
//!   touches, priced by the configuration's memory model. Memcached is
//!   "remarkably cache-friendly", so only a small fraction of touched
//!   lines reach memory — which is why its latency degrades so little
//!   under disaggregation.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simkit::rng::{DetRng, ZipfSampler};
use simkit::time::SimTime;
use thymesisflow_core::config::SystemConfig;
use thymesisflow_core::memmodel::MemoryModel;

use crate::loadgen::{ClosedLoopSim, RunStats, Service};

/// An LRU key-value cache with byte-granular capacity accounting.
///
/// # Example
///
/// ```
/// use workloads::memcached::SlabCache;
///
/// let mut c = SlabCache::new(1024);
/// c.set(1, 600);
/// c.set(2, 600); // evicts key 1
/// assert!(!c.get(1));
/// assert!(c.get(2));
/// ```
#[derive(Debug, Clone)]
pub struct SlabCache {
    capacity: u64,
    used: u64,
    entries: BTreeMap<u64, (u32, u64)>, // key -> (size, stamp)
    lru: BTreeMap<u64, u64>,           // stamp -> key
    clock: u64,
    hits: u64,
    misses: u64,
}

impl SlabCache {
    /// Creates a cache of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "cache needs capacity");
        SlabCache {
            capacity,
            used: 0,
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, key: u64) {
        self.clock += 1;
        if let Some((_, stamp)) = self.entries.get(&key).copied() {
            self.lru.remove(&stamp);
            self.lru.insert(self.clock, key);
            self.entries.get_mut(&key).expect("present").1 = self.clock;
        }
    }

    /// Looks a key up, refreshing its recency. Returns hit/miss.
    pub fn get(&mut self, key: u64) -> bool {
        if self.entries.contains_key(&key) {
            self.touch(key);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Inserts (or refreshes) a value of `size` bytes, evicting LRU
    /// entries as needed.
    ///
    /// # Panics
    ///
    /// Panics if a single value exceeds the cache capacity.
    pub fn set(&mut self, key: u64, size: u32) {
        assert!(size as u64 <= self.capacity, "value larger than cache");
        if let Some((old, stamp)) = self.entries.remove(&key) {
            self.lru.remove(&stamp);
            self.used -= old as u64;
        }
        while self.used + size as u64 > self.capacity {
            let (&stamp, &victim) = self.lru.iter().next().expect("cache over-full");
            self.lru.remove(&stamp);
            let (vsize, _) = self.entries.remove(&victim).expect("lru entry");
            self.used -= vsize as u64;
        }
        self.clock += 1;
        self.entries.insert(key, (size, self.clock));
        self.lru.insert(self.clock, key);
        self.used += size as u64;
    }

    /// Observed hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Bytes in use.
    pub(crate) fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Entries resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The ETC workload model parameters (scaled 1/48 by default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EtcParams {
    /// Distinct keys in the key-value space.
    pub keyspace: u64,
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Zipf exponent for key popularity (the paper sets 1.0).
    pub zipf_theta: f64,
    /// GET:SET ratio (the paper uses 30:1).
    pub get_to_set: f64,
    /// Log-normal value-size parameters (ETC's small values).
    pub value_mu: f64,
    /// Log-normal sigma.
    pub value_sigma: f64,
}

impl Default for EtcParams {
    fn default() -> Self {
        EtcParams {
            // 15 GiB / 10 GiB at 1/48 scale with ~300 B mean values.
            keyspace: 1_000_000,
            cache_bytes: 24 << 20,
            zipf_theta: 1.0,
            get_to_set: 30.0,
            value_mu: 5.0,
            value_sigma: 0.9,
        }
    }
}

impl EtcParams {
    /// Samples a value size in bytes.
    pub(crate) fn value_size(&self, rng: &mut DetRng) -> u32 {
        rng.lognormal(self.value_mu, self.value_sigma).clamp(16.0, 65_536.0) as u32
    }
}

/// Service-model parameters for one GET/SET.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct MemcachedCost {
    /// Base server processing per request, µs (event loop, TCP, parse).
    pub base_us: f64,
    /// Cache lines touched per request (hash chain, item header, value
    /// copy, socket buffers).
    pub lines_touched: f64,
    /// Fraction of touched lines missing the LLC ("remarkably
    /// cache-friendly behavior due to high spatial and temporal
    /// locality").
    pub llc_miss_ratio: f64,
    /// Exponential service jitter mean, µs.
    pub jitter_us: f64,
    /// Mean extra microseconds per memory line under channel bonding
    /// (round-robin response reordering), drawn exponentially.
    pub bonding_reorder_us_per_line: f64,
}

impl Default for MemcachedCost {
    fn default() -> Self {
        MemcachedCost {
            base_us: 20.0,
            lines_touched: 206.0,
            llc_miss_ratio: 0.17,
            jitter_us: 5.0,
            bonding_reorder_us_per_line: 0.33,
        }
    }
}

/// The per-request service model driving [`ClosedLoopSim`].
#[derive(Debug)]
pub struct MemcachedService {
    cache: SlabCache,
    etc: EtcParams,
    cost: MemcachedCost,
    model: MemoryModel,
    zipf: ZipfSampler,
    rng: DetRng,
    sets: u64,
}

impl MemcachedService {
    /// Builds the service and warms the cache (the paper warms up with
    /// SETs "large enough to fill the cache").
    pub fn new(model: MemoryModel, etc: EtcParams, seed: u64) -> Self {
        let mut svc = MemcachedService {
            cache: SlabCache::new(etc.cache_bytes),
            zipf: ZipfSampler::new(etc.keyspace, etc.zipf_theta),
            rng: DetRng::new(seed),
            cost: MemcachedCost::default(),
            etc,
            model,
            sets: 0,
        };
        svc.warm_up();
        svc
    }

    fn warm_up(&mut self) {
        // Fill to capacity with popularity-ordered inserts.
        let mut key = 0u64;
        while self.cache.used_bytes() + 65_536 < self.etc.cache_bytes
            && key < self.etc.keyspace
        {
            let size = self.etc.value_size(&mut self.rng);
            self.cache.set(key, size);
            key += 1;
        }
    }

    /// The cache (for hit-ratio inspection).
    pub fn cache(&self) -> &SlabCache {
        &self.cache
    }

    /// SETs served.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    fn memory_us(&mut self, value_lines: f64) -> f64 {
        let lines = self.cost.lines_touched + value_lines;
        let to_memory = lines * self.cost.llc_miss_ratio;
        let mut us = to_memory * self.model.avg_load_latency_ns() / 1000.0;
        if self.model.config() == SystemConfig::BondingDisaggregated {
            // Round-robin bonding reorders responses; stragglers add an
            // exponential tail on top of the base path.
            us += self
                .rng
                .exp(self.cost.bonding_reorder_us_per_line * to_memory);
        }
        us
    }
}

impl Service for MemcachedService {
    fn service_time(&mut self, rng: &mut DetRng) -> SimTime {
        let key = self.zipf.sample(&mut self.rng);
        let is_get = self.rng.f64() < self.etc.get_to_set / (1.0 + self.etc.get_to_set);
        let us = if is_get {
            let hit = self.cache.get(key);
            let value_lines = if hit {
                let size = self.etc.value_size(&mut self.rng);
                size as f64 / 128.0
            } else {
                0.0 // miss: no value copy, just the lookup
            };
            self.cost.base_us + self.memory_us(value_lines)
        } else {
            self.sets += 1;
            let size = self.etc.value_size(&mut self.rng);
            self.cache.set(key, size);
            self.cost.base_us + self.memory_us(size as f64 / 128.0)
        };
        SimTime::from_ns_f64((us + rng.exp(self.cost.jitter_us)) * 1000.0)
    }

    fn extra_hop(&mut self, rng: &mut DetRng) -> SimTime {
        if self.model.config().is_scale_out() {
            // Twemproxy in front of the servers: two extra network legs,
            // proxy processing, and occasional proxy queueing spikes —
            // "an increase of transactions latency, 8% on average, and a
            // much higher variability".
            let base = 40.0 + rng.exp(15.0);
            let spike = if rng.chance(0.18) { rng.exp(280.0) } else { 0.0 };
            SimTime::from_ns_f64((base + spike) * 1000.0)
        } else {
            SimTime::ZERO
        }
    }
}

/// The full Fig. 8 experiment: 64 clients, one configuration.
#[derive(Debug)]
pub struct MemcachedBench {
    /// Client threads (the paper spawns 64).
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Requests per client (the paper issues 1 M per thread; scale
    /// accordingly for test speed).
    pub requests_per_client: u64,
}

impl Default for MemcachedBench {
    fn default() -> Self {
        MemcachedBench {
            clients: 64,
            workers: 8,
            requests_per_client: 2_000,
        }
    }
}

impl MemcachedBench {
    /// Runs the experiment for one configuration; returns the latency
    /// stats and the service (for hit-ratio checks).
    pub fn run(&self, model: MemoryModel, seed: u64) -> (RunStats, MemcachedService) {
        let client_rtt = SimTime::from_ns_f64(model.params().client_rtt_us * 1000.0);
        let mut service = MemcachedService::new(model, EtcParams::default(), seed);
        let mut sim = ClosedLoopSim::new(self.clients, self.workers, client_rtt, seed ^ 0xFEED);
        let stats = sim.run(&mut service, self.requests_per_client);
        (stats, service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::WorkloadRunner;

    fn model(c: SystemConfig) -> MemoryModel {
        WorkloadRunner::new().model(c)
    }

    fn quick() -> MemcachedBench {
        MemcachedBench {
            clients: 32,
            workers: 8,
            requests_per_client: 800,
        }
    }

    #[test]
    fn lru_cache_semantics() {
        let mut c = SlabCache::new(1000);
        c.set(1, 400);
        c.set(2, 400);
        assert!(c.get(1)); // refresh 1
        c.set(3, 400); // evicts 2 (LRU)
        assert!(c.get(1));
        assert!(!c.get(2));
        assert!(c.get(3));
        assert!(c.used_bytes() <= 1000);
    }

    #[test]
    fn set_replaces_in_place() {
        let mut c = SlabCache::new(1000);
        c.set(1, 400);
        c.set(1, 600);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 600);
    }

    #[test]
    fn hit_ratio_matches_the_paper_envelope() {
        // "We obtain an average hit ratio varying from 80% to 82%, close
        // to the 81% value reported in [56]."
        let (_, svc) = quick().run(model(SystemConfig::Local), 11);
        let hr = svc.cache().hit_ratio();
        assert!((0.76..=0.86).contains(&hr), "hit ratio {hr}");
    }

    #[test]
    fn fig8_latency_ordering() {
        let mean = |c| quick().run(model(c), 17).0.mean_us();
        let local = mean(SystemConfig::Local);
        let inter = mean(SystemConfig::Interleaved);
        let single = mean(SystemConfig::SingleDisaggregated);
        let bonding = mean(SystemConfig::BondingDisaggregated);
        let scale = mean(SystemConfig::ScaleOut);
        // Paper: 600 / 614 / 635 / 650 / 713 µs.
        assert!(local < inter && inter < single && single < bonding && bonding < scale,
            "ordering: {local:.0} {inter:.0} {single:.0} {bonding:.0} {scale:.0}");
        assert!((540.0..=660.0).contains(&local), "local {local}");
        assert!((640.0..=800.0).contains(&scale), "scale-out {scale}");
        // ThymesisFlow configs stay within ~10% of local ("an average
        // increase in latency of up-to 7%").
        assert!(bonding / local < 1.12, "bonding {bonding} vs local {local}");
    }

    #[test]
    fn fig8_tail_behaviour() {
        let run = |c| quick().run(model(c), 23).0;
        let local = run(SystemConfig::Local);
        let bonding = run(SystemConfig::BondingDisaggregated);
        let scale = run(SystemConfig::ScaleOut);
        let tail = |s: &RunStats| s.quantile_us(0.9) / s.mean_us();
        // Local is the most consistent; bonding and especially scale-out
        // degrade at the tail.
        assert!(tail(&local) < tail(&bonding), "local tail vs bonding");
        assert!(tail(&local) < tail(&scale), "local tail vs scale-out");
        assert!(tail(&scale) > 1.12, "scale-out p90/mean {}", tail(&scale));
    }

    #[test]
    fn get_set_ratio_respected() {
        let (_, svc) = quick().run(model(SystemConfig::Local), 31);
        // Every GET is one cache lookup.
        let gets = svc.cache.hits + svc.cache.misses;
        let ratio = gets as f64 / svc.sets().max(1) as f64;
        assert!((24.0..=37.0).contains(&ratio), "GET:SET {ratio}");
    }

    #[test]
    #[should_panic(expected = "value larger than cache")]
    fn oversized_value_panics() {
        let mut c = SlabCache::new(100);
        c.set(1, 200);
    }
}
