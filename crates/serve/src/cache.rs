//! Schedule caching: recurring traffic mixes skip the tree search.
//!
//! A serving loop repeatedly schedules *live scenarios* that recur whenever
//! the same tenants have the same queue depths — a 60 FPS eye tracker
//! produces the same one-frame batch shape sixty times a second. The full
//! SCAR search is orders of magnitude more expensive than a cache probe, so
//! [`ScheduleCache`] memoizes complete [`ScheduleResult`]s keyed by a
//! [`fingerprint`] of everything the scheduling round's outcome depends on:
//! the [`ScheduleRequest`] (scenario content — model names, layer shapes,
//! batch vector — the MCM configuration, the metric, the budget) plus the
//! answering [`Scheduler`]'s name and configuration. The evaluation
//! worker-pool size ([`SearchBudget::parallelism`]) is deliberately *not*
//! keyed: the search engine merges results in generation order, so thread
//! count never changes a schedule.
//!
//! [`SearchBudget::parallelism`]: scar_core::SearchBudget::parallelism
//!
//! An entry memoizes the serving loop's *round outcome* for that
//! fingerprint — a full search, or the incremental fast path's seeded
//! re-evaluation of the previous round's placement (keyed by the shape
//! half of [`fingerprint_parts_in_context`]). Either way the loop stays
//! deterministic: given the same mix and configuration, the same rounds
//! produce the same entries in the same order.
//!
//! Two front doors compute keys: [`fingerprint`] over an owned
//! [`ScheduleRequest`], and [`fingerprint_parts_in_context`] over borrowed
//! request parts plus the serving context — the one the serving loop
//! probes with on every round.
//!
//! Long-running servers see unboundedly many distinct live scenarios, so
//! the cache is bounded: at [`ScheduleCache::capacity`] entries the
//! least-recently-used schedule is evicted. Hit/miss/eviction counters are
//! surfaced in serving reports via [`CacheStats`].
//!
//! ## Fingerprint stability contract
//!
//! Fingerprints are computed with [`StableHasher`] — an in-repo FNV-1a
//! with a pinned little-endian integer encoding — **not** with
//! `DefaultHasher` (SipHash, whose algorithm the standard library
//! explicitly reserves the right to change between releases). The same
//! request therefore hashes to the same `u64` across processes,
//! platforms, and Rust versions, which is what lets fingerprints be
//! persisted (cost-db snapshots, schedule artifacts, replay diffs) and
//! compared across runs. The regression tests at the bottom of this file
//! pin concrete fingerprint values; if one moves, either the fingerprint
//! *content* changed deliberately (update the pin and call it out in the
//! changelog) or stability broke (a bug — fix it). The sole exception is
//! [`OptMetric::Custom`]: closures have no cross-process identity, so
//! their fingerprints are process-local by construction.

use scar_core::{OptMetric, ScheduleRequest, ScheduleResult, Scheduler, SearchBudget};
use scar_hash::StableHasher;
use scar_mcm::McmConfig;
use scar_telemetry::Telemetry;
use scar_workloads::Scenario;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Cache hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the scheduler.
    pub misses: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache is untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Everything a schedule's identity depends on, hashed into one key: the
/// request's scenario (full layer content and batch vector), MCM (chiplet
/// capabilities via [`ChipletConfig::cache_key`] + energy constants,
/// NoP/off-chip parameters, topology adjacency), metric, and budget — plus
/// the answering scheduler's [`name`](Scheduler::name) and configuration
/// ([`Scheduler::fingerprint_config`]: SCAR contributes its window splits,
/// packing/provisioning rules, and search driver there).
///
/// Hashing layer *shapes* (not just model names) keeps custom
/// [`ModelBuilder`](scar_workloads::ModelBuilder)-built models with
/// coincidentally equal names/layer counts from colliding; hashing chiplet
/// capability keeps the two paper profiles (which share template names and
/// dataflow layouts but differ 16× in PE count) apart.
///
/// [`ChipletConfig::cache_key`]: scar_maestro::ChipletConfig::cache_key
pub fn fingerprint(request: &ScheduleRequest, scheduler: &dyn Scheduler) -> u64 {
    fingerprint_parts_in_context(
        &request.scenario,
        &request.mcm,
        &request.metric,
        &request.budget,
        scheduler,
        ServeContext::default(),
    )
    .0
}

/// The serving-loop state a cache key must carry *beyond* the request and
/// scheduler: the admission policy and the traffic shape the round was
/// formed under. A schedule is a pure function of (request, scheduler) —
/// but the serving loop's *rounds* are not: admission decides which
/// arrivals exist and the traffic shape decides when they land, so two
/// runs differing only in those knobs must never alias cache entries (a
/// shape change hitting a stale entry recorded under another regime was
/// the bug this context closes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeContext {
    /// Stable hash of the admission policy's name + configuration.
    pub admission: u64,
    /// Stable hash of the mix's arrival shape
    /// ([`TrafficMix::shape_fingerprint`](crate::TrafficMix::shape_fingerprint)).
    pub traffic_shape: u64,
}

/// The cache keys of one scheduling round, `(full, shape)`, over borrowed
/// request parts keyed additionally by a [`ServeContext`] (admission
/// policy + traffic shape). [`fingerprint`] is the full key at the
/// default (all-zero) context, so context-free callers and serving rounds
/// under one context stay mutually consistent.
///
/// The *shape* key leaves the scenario's batch vector out: two rounds
/// share it exactly when they run the same models (same names, layer
/// shapes, order, use case) on the same MCM under the same scheduler and
/// context and differ **only in batch sizes** — the trigger for the
/// serving loop's incremental rescheduling, which re-evaluates the prior
/// segmentation/placement as a seeded candidate
/// ([`Scheduler::reschedule`]) instead of paying a full search.
///
/// Both keys come from one traversal: the batch-insensitive content is
/// hashed once, the shape key is snapshotted, and the batch vector is
/// folded in on top for the full key. This is the hot-path variant for
/// probe-before-build callers: the serving loop fingerprints every round
/// but only *constructs* an owned [`ScheduleRequest`] on a cache miss, so
/// cache hits stay allocation-free.
pub fn fingerprint_parts_in_context(
    scenario: &Scenario,
    mcm: &McmConfig,
    metric: &OptMetric,
    budget: &SearchBudget,
    scheduler: &dyn Scheduler,
    context: ServeContext,
) -> (u64, u64) {
    let mut h = StableHasher::new();
    context.admission.hash(&mut h);
    context.traffic_shape.hash(&mut h);
    scheduler.name().hash(&mut h);
    scheduler.fingerprint_config(&mut h);
    scenario.use_case().to_string().hash(&mut h);
    for sm in scenario.models() {
        sm.model.name().hash(&mut h);
        for layer in sm.model.layers() {
            layer.hash(&mut h);
        }
    }
    mcm.name().hash(&mut h);
    mcm.num_chiplets().hash(&mut h);
    for ch in mcm.chiplets() {
        ch.cache_key().hash(&mut h);
        ch.energy.mac_pj.to_bits().hash(&mut h);
        ch.energy.l1_pj_per_byte.to_bits().hash(&mut h);
        ch.energy.l2_pj_per_byte.to_bits().hash(&mut h);
    }
    let topo = mcm.topology();
    for a in 0..topo.num_nodes() {
        for b in (a + 1)..topo.num_nodes() {
            topo.is_adjacent(a, b).hash(&mut h);
        }
    }
    mcm.offchip_interfaces().hash(&mut h);
    for v in [
        mcm.offchip.bw_bytes_per_s,
        mcm.offchip.latency_s,
        mcm.offchip.energy_pj_per_byte,
        mcm.nop.bw_bytes_per_s,
        mcm.nop.hop_latency_s,
        mcm.nop.energy_pj_per_byte_hop,
    ] {
        v.to_bits().hash(&mut h);
    }
    // the inter-MCM fabric folds in only when attached, so fingerprints of
    // every pre-fabric (default) configuration — including the pinned
    // process-stability vectors below — are unchanged
    if let Some(spec) = mcm.interconnect() {
        spec.label().hash(&mut h);
        spec.params.bw_bytes_per_s.to_bits().hash(&mut h);
        spec.params.latency_s.to_bits().hash(&mut h);
        spec.params.energy_pj_per_byte.to_bits().hash(&mut h);
    }
    metric.label().hash(&mut h);
    match metric {
        OptMetric::ConstrainedEdp { max_latency_s } => max_latency_s.to_bits().hash(&mut h),
        // closures have no stable identity across processes; the Arc
        // address distinguishes them within one process, and Custom-metric
        // fingerprints are documented as process-local (never persist them)
        OptMetric::Custom(f) => (std::sync::Arc::as_ptr(f) as *const () as usize).hash(&mut h),
        _ => {}
    }
    budget.seed.hash(&mut h);
    budget.top_k_segmentations.hash(&mut h);
    budget.max_segmentations_enumerated.hash(&mut h);
    budget.max_root_perms.hash(&mut h);
    budget.max_paths_per_model.hash(&mut h);
    budget.max_placements_per_window.hash(&mut h);
    budget.max_candidates_per_window.hash(&mut h);
    budget.node_constraint.hash(&mut h);
    let shape = h.clone().finish();
    for sm in scenario.models() {
        sm.batch.hash(&mut h);
    }
    (h.finish(), shape)
}

/// One cached schedule with its recency stamp.
#[derive(Debug)]
struct Entry {
    result: Rc<ScheduleResult>,
    last_used: u64,
}

/// A bounded `fingerprint → ScheduleResult` memo with LRU eviction and
/// hit/miss/eviction accounting.
///
/// Entries are shared via [`Rc`]: a hit hands back a reference-counted
/// pointer rather than deep-cloning the schedule (whose candidate cloud
/// can run to thousands of points) on the very path the cache exists to
/// make cheap.
///
/// Recency is a monotonic tick stamped on every hit and insert; eviction
/// scans for the minimum stamp. The scan is `O(capacity)` but only runs
/// when a full cache takes an insert — a few microseconds at the default
/// capacity, against a schedule search in the milliseconds.
#[derive(Debug)]
pub struct ScheduleCache {
    map: HashMap<u64, Entry>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
    /// Metrics mirror of the counters (disabled by default): hits,
    /// misses, and evictions also land in the telemetry registry so
    /// timelines and metrics dumps see cache behavior without a report.
    telemetry: Telemetry,
}

impl Default for ScheduleCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl ScheduleCache {
    /// Default entry bound: plenty for recurring mixes (which need tens of
    /// entries) while bounding a long-running server's footprint.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            stats: CacheStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink mirroring the hit/miss/eviction counters
    /// into the metrics registry (`serve.cache.*`). Observational only:
    /// cache contents and eviction order are unaffected.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a fingerprint, recording a hit or miss; a hit refreshes
    /// the entry's recency.
    pub fn get(&mut self, key: u64) -> Option<Rc<ScheduleResult>> {
        self.tick += 1;
        match self.map.get_mut(&key) {
            Some(e) => {
                e.last_used = self.tick;
                self.stats.hits += 1;
                self.telemetry.count("serve.cache.hits", 1);
                Some(Rc::clone(&e.result))
            }
            None => {
                self.stats.misses += 1;
                self.telemetry.count("serve.cache.misses", 1);
                None
            }
        }
    }

    /// Stores the schedule for a fingerprint, evicting the least-recently
    /// used entry when the cache is full.
    pub fn insert(&mut self, key: u64, result: Rc<ScheduleResult>) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) {
                self.map.remove(&victim);
                self.stats.evictions += 1;
                self.telemetry.count("serve.cache.evictions", 1);
            }
        }
        self.map.insert(
            key,
            Entry {
                result,
                last_used: self.tick,
            },
        );
        self.telemetry
            .gauge("serve.cache.entries", self.map.len() as f64);
    }

    /// Number of cached schedules.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The accumulated hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears entries and counters (capacity is kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scar_core::baselines::Standalone;
    use scar_core::{Scar, SearchBudget};
    use scar_maestro::Dataflow;
    use scar_mcm::templates::{het_sides_3x3, simba_3x3, Profile};
    use scar_mcm::McmConfig;
    use scar_workloads::scenario::generate;
    use scar_workloads::{Scenario, UseCase};

    fn request(sc: &Scenario, mcm: &McmConfig) -> ScheduleRequest {
        ScheduleRequest::new(sc.clone(), mcm.clone())
    }

    fn key_of(sc: &Scenario, mcm: &McmConfig) -> u64 {
        fingerprint(&request(sc, mcm), &Scar::with_defaults())
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let mcm = het_sides_3x3(Profile::Datacenter);
        let a = generate(1, UseCase::Datacenter, 2);
        assert_eq!(key_of(&a, &mcm), key_of(&a.clone(), &mcm));
        // batch change → different key
        let mut b = a.clone();
        let mut models = b.models().to_vec();
        models[0].batch += 1;
        b = Scenario::new("x", b.use_case(), models);
        assert_ne!(key_of(&a, &mcm), key_of(&b, &mcm));
        // MCM change → different key
        let simba = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        assert_ne!(key_of(&a, &mcm), key_of(&a, &simba));
        // same template name + dataflow layout but 16×-different chiplet
        // capability (the two paper profiles) → different key
        let arvr_mcm = het_sides_3x3(Profile::ArVr);
        assert_ne!(key_of(&a, &mcm), key_of(&a, &arvr_mcm));
        // same name + layer count but different layer shapes → different key
        use scar_workloads::{ModelBuilder, ScenarioModel};
        let model_of = |k: u64| ScenarioModel {
            model: ModelBuilder::new("custom").gemm("g", 64, k, 8).build(),
            batch: 1,
        };
        let sc_x = Scenario::new("x", UseCase::Datacenter, vec![model_of(32)]);
        let sc_y = Scenario::new("x", UseCase::Datacenter, vec![model_of(64)]);
        assert_ne!(key_of(&sc_x, &mcm), key_of(&sc_y, &mcm));
        // metric change → different key
        let k_lat = fingerprint(
            &request(&a, &mcm).metric(OptMetric::Latency),
            &Scar::with_defaults(),
        );
        assert_ne!(key_of(&a, &mcm), k_lat);
        // budget seed change → different key
        let seeded = SearchBudget {
            seed: 999,
            ..SearchBudget::default()
        };
        let k_seed = fingerprint(&request(&a, &mcm).budget(seeded), &Scar::with_defaults());
        assert_ne!(key_of(&a, &mcm), k_seed);
    }

    #[test]
    fn fingerprint_keys_the_scheduler_identity_and_config() {
        // the same request answered by a different scheduler — or the same
        // scheduler family configured differently — must not collide
        let mcm = het_sides_3x3(Profile::Datacenter);
        let sc = generate(1, UseCase::Datacenter, 2);
        let req = request(&sc, &mcm);
        let scar_key = fingerprint(&req, &Scar::with_defaults());
        assert_ne!(scar_key, fingerprint(&req, &Standalone::new()));
        assert_ne!(
            scar_key,
            fingerprint(&req, &Scar::builder().nsplits(1).build()),
            "SCAR's window splits are configuration, not request state"
        );
    }

    /// The cross-process stability contract, pinned to concrete values: a
    /// fixed request must fingerprint to the same `u64` in every process,
    /// on every platform, under every Rust release. `DefaultHasher` (the
    /// pre-fix implementation) documents no such guarantee — its output
    /// may change between releases, which silently invalidates any
    /// persisted fingerprint.
    ///
    /// If this test fails, either the fingerprint *content* was changed
    /// deliberately (re-pin the values and say so in the changelog) or
    /// hashing stability regressed (fix the hasher, never the pin).
    #[test]
    fn fingerprints_are_pinned_across_processes() {
        use scar_workloads::{ModelBuilder, ScenarioModel, UseCase};
        let sc = Scenario::new(
            "pinned",
            UseCase::Datacenter,
            vec![ScenarioModel {
                model: ModelBuilder::new("pin-model").gemm("g0", 64, 32, 8).build(),
                batch: 2,
            }],
        );
        let mcm = het_sides_3x3(Profile::Datacenter);
        let req = ScheduleRequest::new(sc, mcm);
        // Values re-pinned in the overload-serving PR: fingerprint content
        // deliberately grew a leading `ServeContext` (admission policy +
        // traffic shape; zero for context-free callers like this one).
        let parts = |scheduler: &dyn Scheduler| {
            fingerprint_parts_in_context(
                &req.scenario,
                &req.mcm,
                &req.metric,
                &req.budget,
                scheduler,
                ServeContext::default(),
            )
        };
        let (full, shape) = parts(&Standalone::new());
        assert_eq!(full, 0xde94deb8109953fb, "full fingerprint moved");
        assert_eq!(shape, 0x5108e5b95f9d3299, "shape fingerprint moved");
        // SCAR's default configuration hashes its structural knobs too
        let (full, shape) = parts(&Scar::with_defaults());
        assert_eq!(full, 0xde6839881ba41dd7, "SCAR full fingerprint moved");
        assert_eq!(shape, 0x081972f0a2c098f5, "SCAR shape fingerprint moved");
    }

    /// The satellite regression this PR fixes: serve-cache keys must
    /// include the admission policy and the traffic shape. Before
    /// `ServeContext`, a run under burst traffic (or a different admission
    /// regime) could hit a schedule cached under a Poisson run of the same
    /// live scenarios — the schedule itself is request-pure, but reports,
    /// counters, and any context-dependent policy behavior silently aliased.
    #[test]
    fn fingerprint_context_keys_admission_and_traffic_shape() {
        use crate::admission::AdmissionKind;
        use crate::TrafficMix;
        use scar_hash::StableHasher;
        use std::hash::Hasher as _;

        let mcm = het_sides_3x3(Profile::Datacenter);
        let sc = generate(1, UseCase::Datacenter, 2);
        let scar = Scar::with_defaults();
        let key = |ctx: ServeContext| {
            fingerprint_parts_in_context(
                &sc,
                &mcm,
                &OptMetric::Edp,
                &SearchBudget::default(),
                &scar,
                ctx,
            )
        };

        let admission_fp = |kind: AdmissionKind| {
            let policy = kind.policy();
            let mut h = StableHasher::new();
            policy.name().hash(&mut h);
            policy.fingerprint_config(&mut h);
            h.finish()
        };
        let shape = |mix: &TrafficMix| mix.shape_fingerprint();

        let base = ServeContext {
            admission: admission_fp(AdmissionKind::AcceptAll),
            traffic_shape: shape(&TrafficMix::datacenter(1)),
        };
        // same request, different admission policy → different keys (full
        // and shape fingerprints both)
        for kind in [
            AdmissionKind::DeadlineFeasible,
            AdmissionKind::LoadShed { max_queue: 4 },
            AdmissionKind::LoadShed { max_queue: 8 },
        ] {
            let other = ServeContext {
                admission: admission_fp(kind),
                ..base
            };
            assert_ne!(key(base), key(other), "{kind:?} must not alias accept-all");
        }
        // same request, same admission, reshaped traffic → different keys
        for reshaped in [
            TrafficMix::datacenter(1).reshaped(crate::TrafficShape::Burst),
            TrafficMix::datacenter(1).reshaped(crate::TrafficShape::Diurnal),
        ] {
            let other = ServeContext {
                traffic_shape: shape(&reshaped),
                ..base
            };
            assert_ne!(key(base), key(other), "{} must not alias", reshaped.name);
        }
        // the seed is *not* shape: two seeds of one mix share a context
        assert_eq!(
            shape(&TrafficMix::datacenter(1)),
            shape(&TrafficMix::datacenter(99))
        );
        // and the default context is exactly the context-free entry point
        assert_eq!(
            key(ServeContext::default()).0,
            fingerprint(&request(&sc, &mcm), &scar)
        );
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut cache = ScheduleCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), ScheduleCache::DEFAULT_CAPACITY);
        assert!(cache.get(42).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.stats().hit_rate(), 0.0);
        // a real result requires scheduling; store-and-hit is covered by the
        // integration tests — here we only exercise the counter state machine
        assert!(cache.get(42).is_none());
        assert_eq!(cache.stats().misses, 2);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    fn schedule_once() -> Rc<ScheduleResult> {
        use scar_core::Session;
        let sc = generate(3, UseCase::Datacenter, 2);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let budget = SearchBudget {
            max_root_perms: 6,
            max_paths_per_model: 3,
            max_placements_per_window: 40,
            max_candidates_per_window: 60,
            ..SearchBudget::default()
        };
        Rc::new(
            Scar::with_defaults()
                .schedule(&Session::new(), &request(&sc, &mcm).budget(budget))
                .expect("small scenario schedules"),
        )
    }

    #[test]
    fn lru_evicts_least_recently_used_at_capacity() {
        let result = schedule_once();
        let mut cache = ScheduleCache::with_capacity(2);
        cache.insert(1, Rc::clone(&result));
        cache.insert(2, Rc::clone(&result));
        assert!(cache.get(1).is_some()); // 1 is now fresher than 2
        cache.insert(3, Rc::clone(&result)); // capacity 2: evicts 2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(2).is_none(), "LRU entry 2 must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        // re-inserting an existing key must not evict anything
        cache.insert(3, Rc::clone(&result));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let result = schedule_once();
        let mut cache = ScheduleCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(1, Rc::clone(&result));
        cache.insert(2, result);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn shape_fingerprint_ignores_batches_only() {
        let mcm = het_sides_3x3(Profile::Datacenter);
        let a = generate(1, UseCase::Datacenter, 2);
        let shape = |sc: &Scenario, mcm: &McmConfig| {
            fingerprint_parts_in_context(
                sc,
                mcm,
                &OptMetric::Edp,
                &SearchBudget::default(),
                &Scar::with_defaults(),
                ServeContext::default(),
            )
            .1
        };
        // batch change → same shape, different full fingerprint
        let mut models = a.models().to_vec();
        models[0].batch += 3;
        let b = Scenario::new("same-shape", a.use_case(), models);
        assert_eq!(shape(&a, &mcm), shape(&b, &mcm));
        assert_ne!(key_of(&a, &mcm), key_of(&b, &mcm));
        // model-set change → different shape
        let fewer = Scenario::new("fewer", a.use_case(), a.models()[..1].to_vec());
        assert_ne!(shape(&a, &mcm), shape(&fewer, &mcm));
        // MCM change → different shape
        let simba = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        assert_ne!(shape(&a, &mcm), shape(&a, &simba));
    }
}
