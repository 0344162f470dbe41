//! The event-driven serving loop.
//!
//! [`ServeSim`] drives any [`Scheduler`] under dynamic traffic:
//!
//! 1. requests arrive on virtual time (from a [`TrafficMix`]),
//! 2. whenever the accelerator is idle and work is queued, queued requests
//!    are folded per-stream into a *live* [`Scenario`] (queue depth becomes
//!    the batch size, capped by `max_batch_per_stream`),
//! 3. the configured scheduler — held as a `Box<dyn Scheduler>`, so SCAR,
//!    a paper baseline, and any user-provided policy take the same path —
//!    answers a [`ScheduleRequest`] over the simulator's [`Session`]
//!    (one shared cost database for the whole simulation), consulting the
//!    [`ScheduleCache`] first,
//! 4. virtual time advances by the evaluated schedule's window latencies
//!    ([`ScheduleResult::window_latencies`]); each model's requests
//!    complete at its own last-active-window offset
//!    ([`ScheduleResult::model_completion_s`]),
//! 5. per-request latency, deadline hit/miss, energy, and throughput are
//!    recorded into a [`ServeReport`].
//!
//! Two fast paths sit in front of the full search on a scheduling round:
//! the bounded LRU [`ScheduleCache`] (exact fingerprint match), and —
//! on a cache miss whose live scenario differs from the previously
//! scheduled one *only in batch sizes* — incremental rescheduling, which
//! re-evaluates the previous round's segmentation/placement as a seeded
//! candidate ([`Scheduler::reschedule`]) instead of searching.
//!
//! Two overload mechanisms sit around the scheduling rounds (both
//! opt-in; the defaults reproduce the plain loop bit-for-bit):
//! *admission control* ([`crate::admission`]) gates every arrival at
//! ingestion and counts rejections, and *mid-window preemption*
//! ([`ServeConfig::preemption`]) cuts an in-flight schedule at the next
//! window (layer) boundary when a qualifying arrival lands, completes
//! the executed prefix, and resplices partially executed models — as
//! remainder models resuming at their first unexecuted layer — into the
//! next round through [`Scheduler::preempt`].
//!
//! The loop is fully deterministic given the mix (seed included) and the
//! scheduler configuration: identical runs produce identical reports, for
//! any [`Parallelism`] setting (the search engine merges candidate
//! evaluations in generation order).

use crate::admission::{AdmissionContext, AdmissionKind, AdmissionPolicy};
use crate::cache::{fingerprint_parts_in_context, ScheduleCache, ServeContext};
use crate::registry::PolicyRegistry;
use crate::report::{LatencySummary, ServeReport, StreamStats};
use crate::traffic::{Request, RequestStream, TrafficMix};
use scar_core::{
    OptMetric, Parallelism, ScheduleError, ScheduleRequest, ScheduleResult, Scheduler,
    SearchBudget, SearchKind, Session,
};
use scar_hash::StableHasher;
use scar_mcm::McmConfig;
use scar_telemetry::Telemetry;
use scar_workloads::{Model, Scenario, ScenarioModel};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Serving-loop configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Optimization metric for every window schedule.
    pub metric: OptMetric,
    /// SCAR window splits per live scenario (live scenarios are small;
    /// 1 keeps scheduling cheap and windows short). Consumed by the
    /// [`PolicyRegistry`] factories when building a SCAR-family policy;
    /// ignored for schedulers passed in via [`ServeSim::with_scheduler`].
    pub nsplits: usize,
    /// Per-window search driver (same scope as `nsplits`).
    pub search: SearchKind,
    /// Search budgets (the serving loop schedules often — default to a
    /// trimmed budget, not [`SearchBudget::default`]).
    pub budget: SearchBudget,
    /// Cap on requests of one stream folded into a single live batch
    /// (bounds tail latency under bursts).
    pub max_batch_per_stream: u64,
    /// Whether to consult the schedule cache.
    pub use_cache: bool,
    /// Schedule-cache entry bound (LRU eviction beyond it).
    pub cache_capacity: usize,
    /// Whether a cache miss that differs from the previous round only in
    /// batch sizes may reuse the previous segmentation/placement as a
    /// seeded candidate instead of running a full search (only effective
    /// for schedulers that [`Scheduler::supports_reschedule`]; the
    /// search-free baselines do not).
    pub incremental: bool,
    /// Staleness bound on incremental rescheduling: after this many
    /// consecutive seeded rounds the next miss runs a full search even if
    /// the shape still matches, so a drifting tenant mix (batch sizes
    /// moving ever further from the last-searched ones) periodically gets
    /// a placement searched for its current batches.
    pub max_incremental_chain: usize,
    /// The admission-control policy gating every arrival (default
    /// [`AdmissionKind::AcceptAll`], the pre-admission behavior
    /// bit-for-bit). Custom policies go through
    /// [`ServeSim::with_admission`].
    pub admission: AdmissionKind,
    /// Whether a qualifying arrival may *preempt* an in-flight schedule:
    /// the round is cut at the next window (layer) boundary after the
    /// arrival, completed work is accounted, and the remainder —
    /// partially executed models resumed at their first unexecuted layer —
    /// is respliced into the next scheduling round together with the new
    /// traffic ([`Scheduler::preempt`]). Off by default: boundary-only
    /// rescheduling, the pre-preemption behavior bit-for-bit.
    pub preemption: bool,
    /// Rate gate on preemption triggers: only arrivals from streams whose
    /// mean rate is at least this many requests per second cut a window
    /// (the paper's "high-rate tenant arrives mid-window" case). 0 lets
    /// every arrival preempt.
    pub preempt_min_rate_hz: f64,
    /// Worker-pool sizing for candidate evaluation. Wall-clock only:
    /// reports are bit-identical across settings.
    pub parallelism: Parallelism,
    /// Auto-persist path for the session's MAESTRO cost database. When
    /// set, an existing snapshot at this path is loaded at construction
    /// (so a restarted server skips cost-model evaluation for every
    /// covered layer) and the accumulated database is saved back after
    /// every [`ServeSim::run`]. Costs are schedule-independent, so the
    /// snapshot never changes *what* is scheduled — only whether MAESTRO
    /// runs (watch [`ServeReport::cost_evaluations`]).
    pub cost_db_path: Option<std::path::PathBuf>,
    /// Bound on the session's cost-database size at persist time. When
    /// set together with [`ServeConfig::cost_db_path`], every run ends
    /// with an LRU compaction pass ([`Session::compact_costs`]) before the
    /// snapshot is saved, so long-lived stores (a fleet multiplies them)
    /// stop growing without bound. `None` (the default) never evicts.
    pub cost_db_max_entries: Option<usize>,
    /// Telemetry sink threaded through the whole loop: the [`Session`]
    /// (scheduler-side spans), the [`ScheduleCache`] (hit/miss/eviction
    /// counters), admission, and the loop's own phase spans all record
    /// into it. Observational only — the default disabled handle does no
    /// work, and an enabled one never changes what is scheduled, so
    /// reports are bit-identical with telemetry on or off.
    pub telemetry: Telemetry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            metric: OptMetric::Edp,
            nsplits: 1,
            search: SearchKind::BruteForce,
            budget: SearchBudget {
                max_root_perms: 8,
                max_paths_per_model: 4,
                max_placements_per_window: 60,
                max_candidates_per_window: 120,
                ..SearchBudget::default()
            },
            max_batch_per_stream: 32,
            use_cache: true,
            cache_capacity: ScheduleCache::DEFAULT_CAPACITY,
            incremental: true,
            max_incremental_chain: 8,
            admission: AdmissionKind::AcceptAll,
            preemption: false,
            preempt_min_rate_hz: 0.0,
            parallelism: Parallelism::Auto,
            cost_db_path: None,
            cost_db_max_entries: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// A request completion, recorded as it happens.
struct Completion {
    stream: usize,
    latency_s: f64,
    missed_deadline: bool,
    had_deadline: bool,
}

/// One live model of a scheduling round: the stream it serves and the
/// requests folded into its batch.
struct RoundPart {
    stream: usize,
    reqs: Vec<Request>,
}

/// Work cut out of a preempted round: the unexecuted remainder of one live
/// model, respliced into the next round.
struct CarriedWork {
    stream: usize,
    reqs: Vec<Request>,
    /// The remainder model (the original's layers from the first
    /// unexecuted one onward).
    model: Model,
    /// The batch the original round folded (carried unchanged: these
    /// requests were already taken).
    batch: u64,
}

/// Slices the unexecuted remainder of a live model: layers
/// `[executed_end, …)`. `executed_end == 0` (nothing ran) returns the
/// model unchanged, so an un-started tenant reschedules as itself.
fn remainder_model(model: &Model, executed_end: usize) -> Model {
    if executed_end == 0 {
        return model.clone();
    }
    debug_assert!(executed_end < model.num_layers());
    Model::new(
        format!("{}+{}", model.name(), executed_end),
        model.layers()[executed_end..].to_vec(),
    )
}

/// The admission cost-DB probe: [`Session::min_service_s`] at the
/// stream's per-request batch — a lower bound on one request's service
/// latency. Probed entries memoize into the session's shared database
/// (and persist with it), so a warm-started process probes at zero
/// MAESTRO evaluations.
fn min_service_probe(session: &Session, mcm: &McmConfig, stream: &RequestStream) -> f64 {
    session.min_service_s(mcm, &stream.model, stream.samples_per_request)
}

/// Where (if anywhere) a schedule starting at `t` with per-window
/// latencies `lats` gets cut: the index of the window in flight when the
/// earliest pending arrival satisfying `qualifies` lands — provided it
/// lands strictly before the final window starts (cutting after the final
/// window is not a cut). `pending` must hold the not-yet-ingested
/// arrivals in time order; every one of them is strictly later than `t`.
///
/// The cut is at a window boundary: windows are layer-aligned in SCAR
/// (every window boundary is a layer boundary for every active model), so
/// "cut the in-flight window at the next layer boundary" means "finish
/// the window in flight, splice off the rest".
fn splice_point(
    pending: &[Request],
    t: f64,
    lats: &[f64],
    mut qualifies: impl FnMut(&Request) -> bool,
) -> Option<usize> {
    if lats.len() < 2 {
        return None;
    }
    // window end times by one shared accumulation, so the early-exit
    // bound and the cut-window search can never disagree by a rounding
    // ulp (a subtraction-derived bound could)
    let ends: Vec<f64> = lats
        .iter()
        .scan(t, |acc, lat| {
            *acc += lat;
            Some(*acc)
        })
        .collect();
    let last_window_start = ends[ends.len() - 2];
    for a in pending {
        if a.arrival_s >= last_window_start {
            return None;
        }
        if !qualifies(a) {
            continue;
        }
        // the window in flight at the arrival instant; `arrival <
        // last_window_start == ends[len - 2]` guarantees a non-final match
        let w = ends[..ends.len() - 1]
            .iter()
            .position(|&end| a.arrival_s < end)
            .expect("arrival before the final window start is inside a non-final window");
        return Some(w);
    }
    None
}

/// The serving simulator: binds an MCM, a scheduler, a [`Session`], and a
/// schedule cache.
///
/// The cache and the session's cost database persist across
/// [`ServeSim::run`] calls, so serving the same mix twice shows warm-cache
/// behavior — exactly the recurring-traffic effect the cache exists for.
pub struct ServeSim<'a> {
    mcm: &'a McmConfig,
    cfg: ServeConfig,
    scheduler: Box<dyn Scheduler>,
    admission: Box<dyn AdmissionPolicy>,
    session: Session,
    cache: ScheduleCache,
    /// The previously scheduled round: its batch-insensitive shape
    /// fingerprint and its result (the incremental-rescheduling seed).
    last: Option<(u64, Rc<ScheduleResult>)>,
    /// Consecutive seeded rounds since the last full search (the
    /// staleness chain bounded by `max_incremental_chain`).
    incremental_chain: usize,
    /// Rounds served by the incremental fast path (cumulative).
    incremental_reschedules: u64,
    /// Mid-window preemptions (cumulative).
    preemptions: u64,
    /// Rounds that ran the full window search (neither a cache hit nor an
    /// incremental reschedule; cumulative). Deterministic, so it may
    /// appear in reports.
    full_searches: u64,
    /// The telemetry handle (a clone of [`ServeConfig::telemetry`]):
    /// spans and counters are recorded from this coordinating thread
    /// only, never inside evaluation workers.
    tel: Telemetry,
    /// Cost entries covered by the on-disk snapshot as of the last
    /// load/save — a steady-state run that added nothing skips the
    /// rewrite.
    persisted_costs: usize,
}

impl std::fmt::Debug for ServeSim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeSim")
            .field("mcm", &self.mcm.name())
            .field("scheduler", &self.scheduler.name())
            .field("cfg", &self.cfg)
            .field("cache", &self.cache.stats())
            .field("incremental_reschedules", &self.incremental_reschedules)
            .finish_non_exhaustive()
    }
}

impl<'a> ServeSim<'a> {
    /// A simulator over `mcm` serving with the registry's SCAR policy
    /// built from `cfg` (the common case).
    pub fn new(mcm: &'a McmConfig, cfg: ServeConfig) -> Self {
        let scheduler = PolicyRegistry::with_builtins()
            .build("SCAR", &cfg)
            .expect("SCAR is a built-in policy");
        Self::with_scheduler(mcm, scheduler, cfg)
    }

    /// A simulator serving with an arbitrary [`Scheduler`] — the trait
    /// object takes the exact same path as the built-in policies.
    ///
    /// # Panics
    ///
    /// Panics if [`ServeConfig::cost_db_path`] points at an existing file
    /// that is not a loadable cost snapshot (corrupt, wrong format
    /// version, or written by a different cost model): serving on costs
    /// from a different model would silently change every schedule, so a
    /// bad snapshot is a configuration error, not a warm-start miss. A
    /// *missing* file is fine — that is the cold start that writes it.
    pub fn with_scheduler(
        mcm: &'a McmConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: ServeConfig,
    ) -> Self {
        let session = Session::new().with_telemetry(cfg.telemetry.clone());
        if let Some(path) = &cfg.cost_db_path {
            if path.exists() {
                let loaded = session.load_costs(path).unwrap_or_else(|e| {
                    panic!("cost_db_path {}: {e}", path.display());
                });
                debug_assert_eq!(session.cached_costs(), loaded);
            }
        }
        Self::with_session(mcm, scheduler, cfg, session)
    }

    /// [`ServeSim::with_scheduler`] over a caller-provided [`Session`] —
    /// the fleet tier threads one session (and its cost database) through
    /// every replica this way, so warm entries from replica `k` serve
    /// replica `k+1`. The session keeps whatever telemetry the caller
    /// attached, and `cfg.cost_db_path` loading/persistence stays with
    /// the caller too (pass it as `None` here to avoid double-persisting).
    pub fn with_session(
        mcm: &'a McmConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: ServeConfig,
        session: Session,
    ) -> Self {
        let tel = cfg.telemetry.clone();
        let cache = ScheduleCache::with_capacity(cfg.cache_capacity).with_telemetry(tel.clone());
        let persisted_costs = session.cached_costs();
        let admission = cfg.admission.policy();
        Self {
            mcm,
            cfg,
            scheduler,
            admission,
            session,
            cache,
            last: None,
            incremental_chain: 0,
            incremental_reschedules: 0,
            preemptions: 0,
            full_searches: 0,
            tel,
            persisted_costs,
        }
    }

    /// Consumes the simulator, handing back its [`Session`] — the other
    /// half of [`ServeSim::with_session`]: the fleet reclaims the shared
    /// session after each replica's run to pass it to the next.
    pub fn into_session(self) -> Session {
        self.session
    }

    /// Replaces the admission policy with an arbitrary implementation —
    /// custom policies take the exact same path as the built-ins selected
    /// through [`ServeConfig::admission`].
    #[must_use]
    pub fn with_admission(mut self, policy: Box<dyn AdmissionPolicy>) -> Self {
        self.admission = policy;
        self
    }

    /// The name of the admission policy gating arrivals.
    pub fn admission_name(&self) -> &str {
        self.admission.name()
    }

    /// Mid-window preemptions performed since the simulator was created.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Rounds that ran the full window search since the simulator was
    /// created (neither a cache hit nor an incremental reschedule).
    pub fn full_searches(&self) -> u64 {
        self.full_searches
    }

    /// The telemetry sink this simulator records into (disabled unless
    /// [`ServeConfig::telemetry`] enabled it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// A SCAR-policy simulator with the default configuration.
    pub fn with_defaults(mcm: &'a McmConfig) -> Self {
        Self::new(mcm, ServeConfig::default())
    }

    /// The accumulated schedule-cache state.
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// The scheduling session (shared cost database) backing every round.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The name of the scheduler serving this simulator.
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// The scheduler serving this simulator (e.g. for recording artifacts
    /// with [`scar_core::ScheduleArtifact::of`], which captures its name
    /// and configuration).
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.scheduler.as_ref()
    }

    /// Rounds served by the incremental-rescheduling fast path since the
    /// simulator was created.
    pub fn incremental_reschedules(&self) -> u64 {
        self.incremental_reschedules
    }

    /// Serves every request the mix emits in `[0, horizon_s)` to
    /// completion and reports the serving metrics.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if the scheduler cannot schedule a live
    /// scenario (e.g. more concurrent tenants than chiplets under
    /// `Standalone`).
    ///
    /// # Panics
    ///
    /// Panics if `horizon_s` is not positive and finite (see
    /// [`TrafficMix::arrivals`]).
    pub fn run(&mut self, mix: &TrafficMix, horizon_s: f64) -> Result<ServeReport, ScheduleError> {
        let arrivals = mix.arrivals(horizon_s);
        self.run_arrivals(mix, arrivals)
    }

    /// Serves an explicit, time-sorted arrival list drawn from `mix`'s
    /// streams to completion — the entry point a fleet dispatcher uses to
    /// feed one replica its routed share of a globally generated arrival
    /// sequence ([`crate::fleet`]). [`ServeSim::run`] is exactly
    /// `run_arrivals(mix, mix.arrivals(horizon_s))`, so a single-replica
    /// fleet reproduces a plain serving run byte-for-byte.
    ///
    /// Request ids are free-form (a fleet keeps them globally unique
    /// across replicas); only arrival order and per-request fields matter.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if the scheduler cannot schedule a live
    /// scenario (e.g. more concurrent tenants than chiplets under
    /// `Standalone`).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `arrivals` is not sorted by arrival
    /// time or references a stream `mix` does not have.
    pub fn run_arrivals(
        &mut self,
        mix: &TrafficMix,
        arrivals: Vec<Request>,
    ) -> Result<ServeReport, ScheduleError> {
        debug_assert!(
            arrivals
                .windows(2)
                .all(|w| w[0].arrival_s <= w[1].arrival_s),
            "arrivals must be sorted by arrival time"
        );
        debug_assert!(
            arrivals.iter().all(|r| r.stream < mix.streams.len()),
            "every arrival must reference a stream of the mix"
        );
        let cache_before = self.cache.stats();
        let incremental_before = self.incremental_reschedules;
        let preemptions_before = self.preemptions;
        let full_before = self.full_searches;
        let evaluations_before = self.session.cost_evaluations();
        // local handle so span guards never borrow `self` across the
        // `&mut self` scheduling calls below
        let tel = self.tel.clone();
        let offered = arrivals.len();
        let mut next_arrival = 0usize;
        let mut queues: Vec<VecDeque<Request>> = vec![VecDeque::new(); mix.streams.len()];
        let mut rejected_per_stream = vec![0usize; mix.streams.len()];
        let mut rejected = 0usize;
        // lazily probed per-stream service-latency lower bounds (the
        // admission cost-DB probe; memoized so it runs once per stream)
        let mut min_service: Vec<Option<f64>> = vec![None; mix.streams.len()];
        // work cut out of a preempted round, respliced into the next one
        let mut carried: Vec<CarriedWork> = Vec::new();
        // the instance that was cut, handed to `Scheduler::preempt`
        let mut preempt_seed: Option<Rc<ScheduleResult>> = None;
        let context = self.serve_context(mix);

        let mut t = 0.0f64;
        let mut completions: Vec<Completion> = Vec::with_capacity(offered);
        let mut windows_scheduled = 0usize;
        let mut energy_j = 0.0f64;
        let mut makespan = 0.0f64;
        // wall the package spent executing windows (virtual time minus
        // idle jumps) — the numerator of a replica's utilization
        let mut busy_s = 0.0f64;

        // the root span every per-phase interval nests under (trace
        // coverage is measured against its extent)
        let mut run_span = tel.span("serve.run");
        run_span.push_arg("mix", mix.name.as_str());
        run_span.push_arg("offered", offered);

        while completions.len() + rejected < offered {
            // ingest everything that has arrived by now, through admission
            while next_arrival < arrivals.len() && arrivals[next_arrival].arrival_s <= t {
                let r = arrivals[next_arrival];
                next_arrival += 1;
                let stream = &mix.streams[r.stream];
                // the cost-DB probe runs only for policies that read it,
                // so the default accept-all path never touches the model
                let min_service_s = self.admission.wants_cost_probe().then(|| {
                    *min_service[r.stream].get_or_insert_with(|| {
                        let _g = tel.span("serve.admission.probe").arg("stream", r.stream);
                        min_service_probe(&self.session, self.mcm, stream)
                    })
                });
                let ctx = AdmissionContext {
                    now_s: t,
                    queue_depth: queues[r.stream].len(),
                    stream,
                    min_service_s,
                };
                if crate::admission::admit_observed(self.admission.as_mut(), &tel, &r, &ctx) {
                    queues[r.stream].push_back(r);
                } else {
                    rejected += 1;
                    rejected_per_stream[r.stream] += 1;
                }
            }
            if carried.is_empty() && queues.iter().all(VecDeque::is_empty) {
                if next_arrival >= arrivals.len() {
                    // every remaining offered request was rejected
                    break;
                }
                // idle: jump to the next arrival
                t = arrivals[next_arrival].arrival_s;
                continue;
            }

            // fold carried remainders (in carry order) and queue depths
            // into a live scenario
            let mut live_models: Vec<ScenarioModel> = Vec::new();
            let mut parts: Vec<RoundPart> = Vec::new();
            for c in carried.drain(..) {
                live_models.push(ScenarioModel {
                    model: c.model,
                    batch: c.batch,
                });
                parts.push(RoundPart {
                    stream: c.stream,
                    reqs: c.reqs,
                });
            }
            for (si, q) in queues.iter_mut().enumerate() {
                if q.is_empty() {
                    continue;
                }
                let stream = &mix.streams[si];
                let n = (q.len() as u64).min(self.cfg.max_batch_per_stream);
                let reqs: Vec<Request> = (0..n).map(|_| q.pop_front().expect("n <= len")).collect();
                live_models.push(ScenarioModel {
                    model: stream.model.clone(),
                    batch: n * stream.samples_per_request,
                });
                parts.push(RoundPart { stream: si, reqs });
            }
            let live = Scenario::new(
                format!("{} @ {:.4}s", mix.name, t),
                mix.use_case,
                live_models,
            );

            // schedule (through the cache when enabled; post-splice rounds
            // route through `Scheduler::preempt` instead)
            let result = self.schedule_live(&live, context, preempt_seed.take())?;
            windows_scheduled += 1;
            let lats = result.window_latencies();
            let window_total: f64 = lats.iter().sum();

            // a qualifying arrival landing mid-schedule cuts the round at
            // the end of its in-flight window: qualifying = from a stream
            // at or above the rate gate, AND worth preempting for in the
            // admission policy's judgment (a deadline-hopeless arrival
            // that admission will reject anyway must not splice — the
            // reschedule would serve nobody)
            let cut = if self.cfg.preemption {
                let mut scan = tel.span("serve.splice.scan");
                scan.push_arg("pending", arrivals.len() - next_arrival);
                let admission = &self.admission;
                let session = &self.session;
                let mcm = self.mcm;
                let min_rate_hz = self.cfg.preempt_min_rate_hz;
                let qualifies = |a: &Request| {
                    let stream = &mix.streams[a.stream];
                    if stream.arrivals.rate_hz() < min_rate_hz {
                        return false;
                    }
                    let min_service_s = admission.wants_cost_probe().then(|| {
                        *min_service[a.stream].get_or_insert_with(|| {
                            let _g = tel.span("serve.admission.probe").arg("stream", a.stream);
                            min_service_probe(session, mcm, stream)
                        })
                    });
                    admission.preempt_worthy(
                        a,
                        &AdmissionContext {
                            now_s: a.arrival_s,
                            queue_depth: queues[a.stream].len(),
                            stream,
                            min_service_s,
                        },
                    )
                };
                let cut = splice_point(&arrivals[next_arrival..], t, &lats, qualifies);
                scan.push_arg("cut", cut.is_some());
                cut
            } else {
                None
            };

            let mut complete = |part: &RoundPart, done_at: f64| {
                makespan = makespan.max(done_at);
                for r in &part.reqs {
                    completions.push(Completion {
                        stream: part.stream,
                        latency_s: done_at - r.arrival_s,
                        missed_deadline: r.deadline_s.is_some_and(|d| done_at > d),
                        had_deadline: r.deadline_s.is_some(),
                    });
                }
            };

            match cut {
                None => {
                    // complete each part's requests at its model's offset;
                    // the package is busy until the whole schedule drains
                    for (mi, part) in parts.iter().enumerate() {
                        let offset = result.model_completion_s(mi).unwrap_or(window_total);
                        complete(part, t + offset);
                    }
                    energy_j += result.total().energy_j;
                    t += window_total;
                    busy_s += window_total;
                }
                Some(cut_w) => {
                    // execute windows 0..=cut_w, splice off the rest:
                    // finished models complete, partially executed ones are
                    // carried as remainders into the next round
                    let mut splice = tel.span("serve.splice");
                    splice.push_arg("cut_window", cut_w);
                    self.preemptions += 1;
                    let executed: &[_] = &result.windows()[..=cut_w];
                    energy_j += executed.iter().map(|w| w.energy_j).sum::<f64>();
                    for (mi, part) in parts.into_iter().enumerate() {
                        let executed_end = executed
                            .iter()
                            .flat_map(|w| &w.models)
                            .filter(|m| m.model == mi)
                            .map(|m| m.layers.end)
                            .max()
                            .unwrap_or(0);
                        let sm = &live.models()[mi];
                        if executed_end >= sm.model.num_layers() {
                            let offset = result
                                .model_completion_s(mi)
                                .expect("fully executed model is active somewhere");
                            complete(&part, t + offset);
                        } else {
                            carried.push(CarriedWork {
                                stream: part.stream,
                                reqs: part.reqs,
                                model: remainder_model(&sm.model, executed_end),
                                batch: sm.batch,
                            });
                        }
                    }
                    let executed_s: f64 = lats[..=cut_w].iter().sum();
                    t += executed_s;
                    busy_s += executed_s;
                    preempt_seed = Some(Rc::clone(&result));
                    splice.push_arg("carried", carried.len());
                }
            }
        }
        drop(run_span);

        let cache = {
            let after = self.cache.stats();
            crate::cache::CacheStats {
                hits: after.hits - cache_before.hits,
                misses: after.misses - cache_before.misses,
                evictions: after.evictions - cache_before.evictions,
            }
        };
        let incremental = self.incremental_reschedules - incremental_before;
        let preemptions = self.preemptions - preemptions_before;
        let full_searches = self.full_searches - full_before;
        let cost_evaluations = self.session.cost_evaluations() - evaluations_before;
        // mirror the run's deterministic counters into the metrics
        // registry (the sim's own fields stay the report's source of
        // truth; cache hit/miss/eviction counters are mirrored by the
        // cache itself as they happen)
        tel.count("serve.offered", offered as u64);
        tel.count("serve.completed", completions.len() as u64);
        tel.count("serve.rejected", rejected as u64);
        tel.count("serve.windows_scheduled", windows_scheduled as u64);
        tel.count("serve.preemptions", preemptions);
        tel.count("serve.incremental_reschedules", incremental);
        tel.count("serve.full_searches", full_searches);
        tel.count("maestro.cost_evaluations", cost_evaluations);
        if let Some(path) = &self.cfg.cost_db_path {
            // lifecycle pass at persist time: bound the store when
            // configured (fleets multiply store count) by evicting
            // least-recently-used entries; recency advances one epoch per
            // compaction, so "recently used" means "used this run"
            let evicted = match self.cfg.cost_db_max_entries {
                Some(max) => self.session.compact_costs(max),
                None => 0,
            };
            // persist the accumulated database so the next process (or the
            // next run) starts warm; a steady-state run that added no
            // entries skips the rewrite (unless compaction shrank it), and
            // errors must not lose the report
            if evicted > 0 || self.session.cached_costs() != self.persisted_costs {
                match self.session.save_costs(path) {
                    Ok(()) => self.persisted_costs = self.session.cached_costs(),
                    Err(e) => eprintln!("warning: failed to persist cost database: {e}"),
                }
            }
        }
        debug_assert_eq!(
            completions.len() + rejected,
            offered,
            "conservation of arrivals: every offered request completes or is rejected"
        );
        Ok(self.build_report(
            mix,
            completions,
            offered,
            rejected,
            rejected_per_stream,
            preemptions,
            windows_scheduled,
            energy_j,
            makespan,
            busy_s,
            cache,
            incremental,
            full_searches,
            cost_evaluations,
        ))
    }

    /// True when this configuration can ever take the incremental path
    /// (it is pointless for the search-free baselines).
    fn incremental_enabled(&self) -> bool {
        self.cfg.incremental && self.scheduler.supports_reschedule()
    }

    /// The [`ScheduleRequest`] the loop issues for a live scenario: the
    /// simulator's MCM plus the configured metric, budget, and
    /// parallelism. Public so tools can persist the exact request of a
    /// round (e.g. as a [`scar_core::ScheduleArtifact`]).
    pub fn schedule_request(&self, live: &Scenario) -> ScheduleRequest {
        ScheduleRequest::new(live.clone(), self.mcm.clone())
            .metric(self.cfg.metric.clone())
            .budget(self.cfg.budget.clone())
            .parallelism(self.cfg.parallelism)
    }

    /// [`Self::schedule_request`] plus a trace tag (the live scenario's
    /// name) when tracing is on. The tag is observational only — never
    /// fingerprinted, never consulted — so tagged and untagged requests
    /// schedule identically.
    fn tagged_request(&self, live: &Scenario) -> ScheduleRequest {
        let request = self.schedule_request(live);
        if self.tel.trace_enabled() {
            request.trace_tag(live.name())
        } else {
            request
        }
    }

    /// The serve-cache fingerprint context of one run: the admission
    /// policy (name + configuration) and the mix's traffic shape. Keyed
    /// into every cache probe so a schedule cached under one serving
    /// regime is never replayed under another.
    fn serve_context(&self, mix: &TrafficMix) -> ServeContext {
        let mut h = StableHasher::new();
        self.admission.name().hash(&mut h);
        self.admission.fingerprint_config(&mut h);
        ServeContext {
            admission: h.finish(),
            traffic_shape: mix.shape_fingerprint(),
        }
    }

    /// Schedules one live scenario through the configured scheduler:
    /// schedule cache first, then the incremental-rescheduling fast path
    /// (previous round's placement re-evaluated when only batch sizes
    /// changed), then the full [`Scheduler::schedule`]. Returns a shared
    /// pointer so cache hits stay allocation-free.
    ///
    /// Incremental results are cached like searched ones, so a recurring
    /// batch variant pays the seeded re-evaluation once and is an O(1) hit
    /// afterwards — an entry memoizes the round's outcome, not specifically
    /// a full search (see the [`crate::cache`] docs).
    ///
    /// A round formed right after a mid-window splice (`preempted` holds
    /// the cut result) routes through [`Scheduler::preempt`] and is cached
    /// under its own key — the request fingerprint *combined with* a
    /// stable hash of the cut in-flight instance. A preemption-aware
    /// scheduler may legitimately answer differently than a cold
    /// `schedule` for the same request, so the preempt key never collides
    /// with the plain-request key; but `Scheduler::preempt` is
    /// deterministic in `(request, in_flight)`, so repeated identical
    /// splices (replay, recurring burst patterns) hit instead of
    /// re-searching.
    fn schedule_live(
        &mut self,
        live: &Scenario,
        context: ServeContext,
        preempted: Option<Rc<ScheduleResult>>,
    ) -> Result<Rc<ScheduleResult>, ScheduleError> {
        let tel = self.tel.clone();
        if let Some(in_flight) = preempted {
            let mut probe = tel.span("serve.cache.probe");
            let (base, _) = fingerprint_parts_in_context(
                live,
                self.mcm,
                &self.cfg.metric,
                &self.cfg.budget,
                self.scheduler.as_ref(),
                context,
            );
            let request = self.tagged_request(live);
            let key = {
                let mut h = StableHasher::new();
                "preempt".hash(&mut h);
                base.hash(&mut h);
                // the scheduler hashes only what its `preempt` actually
                // reads from the cut instance (SCAR: the mined warm
                // hints), so cuts differing in irrelevant detail share
                // one cached splice
                self.scheduler
                    .preempt_fingerprint(&request, in_flight.schedule(), &mut h);
                h.finish()
            };
            if self.cfg.use_cache {
                if let Some(hit) = self.cache.get(key) {
                    probe.push_arg("hit", true);
                    // spliced rounds never seed the incremental chain:
                    // their shape (remainder models) is one-off
                    self.incremental_chain = 0;
                    self.last = None;
                    return Ok(hit);
                }
            }
            probe.push_arg("hit", false);
            drop(probe);
            let result = {
                let _sp = tel.span("serve.schedule").arg("kind", "preempt");
                Rc::new(
                    self.scheduler
                        .preempt(&self.session, &request, in_flight.schedule())?,
                )
            };
            if self.cfg.use_cache {
                let _g = tel.span("serve.cache.store");
                self.cache.insert(key, Rc::clone(&result));
            }
            self.incremental_chain = 0;
            self.last = None;
            return Ok(result);
        }
        // probe by reference: the owned request is only built on a miss,
        // so cache hits stay allocation-free
        let mut probe = tel.span("serve.cache.probe");
        let (key, shape) = fingerprint_parts_in_context(
            live,
            self.mcm,
            &self.cfg.metric,
            &self.cfg.budget,
            self.scheduler.as_ref(),
            context,
        );
        // the batch-insensitive shape seeds/probes the incremental path
        let shape = self.incremental_enabled().then_some(shape);
        if self.cfg.use_cache {
            if let Some(hit) = self.cache.get(key) {
                probe.push_arg("hit", true);
                if let Some(shape) = shape {
                    self.last = Some((shape, Rc::clone(&hit)));
                }
                return Ok(hit);
            }
        }
        probe.push_arg("hit", false);
        drop(probe);
        let request = self.tagged_request(live);
        let result = {
            let mut sp = tel.span("serve.schedule");
            match shape.and_then(|s| self.reschedule_incremental(&request, s)) {
                Some(reused) => {
                    sp.push_arg("kind", "incremental");
                    Rc::new(reused)
                }
                None => {
                    sp.push_arg("kind", "full");
                    let searched = Rc::new(self.scheduler.schedule(&self.session, &request)?);
                    self.incremental_chain = 0;
                    self.full_searches += 1;
                    searched
                }
            }
        };
        if self.cfg.use_cache {
            let _g = tel.span("serve.cache.store");
            self.cache.insert(key, Rc::clone(&result));
        }
        if let Some(shape) = shape {
            self.last = Some((shape, Rc::clone(&result)));
        }
        Ok(result)
    }

    /// The incremental fast path: when the previous round's scenario had
    /// the same shape (same models on the same configuration — only batch
    /// sizes differ), re-evaluate its schedule instance as a seeded
    /// candidate. `None` when shapes differ, the staleness chain hit
    /// [`ServeConfig::max_incremental_chain`], or the scheduler declines
    /// the seed ([`Scheduler::reschedule`]).
    fn reschedule_incremental(
        &mut self,
        request: &ScheduleRequest,
        shape: u64,
    ) -> Option<ScheduleResult> {
        if self.incremental_chain >= self.cfg.max_incremental_chain {
            return None;
        }
        let (last_shape, last_result) = self.last.as_ref()?;
        if *last_shape != shape {
            return None;
        }
        let result = self
            .scheduler
            .reschedule(&self.session, request, last_result.schedule())?;
        self.incremental_chain += 1;
        self.incremental_reschedules += 1;
        Some(result)
    }

    /// Runs the configured scheduler directly (no cache, no incremental
    /// reuse): what both fast paths must be benchmarked against.
    ///
    /// # Errors
    ///
    /// Propagates the scheduler's [`ScheduleError`].
    pub fn schedule_fresh(&self, live: &Scenario) -> Result<ScheduleResult, ScheduleError> {
        self.scheduler
            .schedule(&self.session, &self.schedule_request(live))
    }

    #[allow(clippy::too_many_arguments)]
    fn build_report(
        &self,
        mix: &TrafficMix,
        completions: Vec<Completion>,
        offered: usize,
        rejected: usize,
        rejected_per_stream: Vec<usize>,
        preemptions: u64,
        windows_scheduled: usize,
        energy_j: f64,
        makespan_s: f64,
        busy_s: f64,
        cache: crate::cache::CacheStats,
        incremental_reschedules: u64,
        full_searches: u64,
        cost_evaluations: u64,
    ) -> ServeReport {
        let mut per_stream_lat: Vec<Vec<f64>> = vec![Vec::new(); mix.streams.len()];
        let mut per_stream_miss = vec![0usize; mix.streams.len()];
        let mut deadline_misses = 0usize;
        let mut deadline_bound = 0usize;
        let mut all_lat = Vec::with_capacity(completions.len());
        for c in &completions {
            per_stream_lat[c.stream].push(c.latency_s);
            all_lat.push(c.latency_s);
            if c.had_deadline {
                deadline_bound += 1;
                if c.missed_deadline {
                    deadline_misses += 1;
                    per_stream_miss[c.stream] += 1;
                }
            }
        }
        let per_stream = mix
            .streams
            .iter()
            .enumerate()
            .map(|(si, s)| StreamStats {
                model_name: s.model.name().to_string(),
                completed: per_stream_lat[si].len(),
                rejected: rejected_per_stream[si],
                latency: LatencySummary::of(&per_stream_lat[si]),
                deadline_misses: per_stream_miss[si],
                has_deadlines: s.deadline_s.is_some(),
            })
            .collect();
        ServeReport {
            mix_name: mix.name.clone(),
            policy_name: format!("{} on {}", self.scheduler.name(), self.mcm.name()),
            makespan_s,
            busy_s,
            offered,
            completed: completions.len(),
            rejected,
            preemptions,
            windows_scheduled,
            throughput_rps: if makespan_s > 0.0 {
                completions.len() as f64 / makespan_s
            } else {
                0.0
            },
            energy_j,
            latency: LatencySummary::of(&all_lat),
            deadline_misses,
            deadline_bound,
            cache,
            incremental_reschedules,
            full_searches,
            cost_evaluations,
            per_stream,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficMix;
    use scar_core::baselines::Standalone;
    use scar_mcm::templates::{het_sides_3x3, Profile};

    fn sim_mcm() -> scar_mcm::McmConfig {
        het_sides_3x3(Profile::ArVr)
    }

    /// A simulator serving the registry's built-in policy `name`.
    fn sim_with<'a>(mcm: &'a scar_mcm::McmConfig, name: &str, cfg: ServeConfig) -> ServeSim<'a> {
        let scheduler = PolicyRegistry::with_builtins()
            .build(name, &cfg)
            .expect("built-in policy");
        ServeSim::with_scheduler(mcm, scheduler, cfg)
    }

    #[test]
    fn serves_all_requests_and_reports() {
        let mcm = sim_mcm();
        let mut sim = ServeSim::with_defaults(&mcm);
        let mix = TrafficMix::arvr(1);
        let report = sim.run(&mix, 0.1).expect("3 tenants fit a 3x3");
        let offered = mix.arrivals(0.1).len();
        assert_eq!(report.completed, offered);
        assert!(report.windows_scheduled > 0);
        assert!(report.makespan_s > 0.0);
        assert!(report.energy_j > 0.0);
        assert!(report.throughput_rps > 0.0);
        assert!(report.latency.p50_s > 0.0);
        assert!(report.latency.p50_s <= report.latency.p95_s);
        assert!(report.latency.p95_s <= report.latency.p99_s);
        assert!(report.latency.p99_s <= report.latency.max_s);
        assert_eq!(
            report.per_stream.iter().map(|s| s.completed).sum::<usize>(),
            offered
        );
        // the serving loop reuses one session-wide cost database
        assert!(sim.session().cached_costs() > 0);
    }

    #[test]
    fn recurring_frames_hit_the_cache() {
        let mcm = sim_mcm();
        let mut sim = ServeSim::with_defaults(&mcm);
        let report = sim.run(&TrafficMix::arvr(1), 0.25).unwrap();
        // a frame mix recurs (same queue shapes) → the cache must pay off
        assert!(
            report.cache.hits > 0,
            "expected cache hits, got {:?}",
            report.cache
        );
        assert!(report.cache.misses > 0, "first rounds must miss");
    }

    #[test]
    fn cache_disabled_never_hits() {
        let mcm = sim_mcm();
        let cfg = ServeConfig {
            use_cache: false,
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::new(&mcm, cfg);
        let report = sim.run(&TrafficMix::arvr(1), 0.1).unwrap();
        assert_eq!(report.cache.hits, 0);
        assert_eq!(report.cache.misses, 0);
    }

    #[test]
    fn baseline_policies_serve_too() {
        let mcm = sim_mcm();
        for policy in ["Standalone", "NN-baton"] {
            let mut sim = sim_with(&mcm, policy, ServeConfig::default());
            let report = sim.run(&TrafficMix::arvr(2), 0.05).unwrap();
            assert!(report.completed > 0, "{policy}");
            assert!(
                report.policy_name.starts_with(policy),
                "{policy} must be named in {:?}",
                report.policy_name
            );
        }
    }

    /// A scheduler defined outside the crate serves through the same loop
    /// as the built-ins — the point of holding a `Box<dyn Scheduler>`.
    #[test]
    fn custom_boxed_scheduler_serves() {
        struct AlwaysStandalone(Standalone);
        impl Scheduler for AlwaysStandalone {
            fn name(&self) -> &str {
                "custom-standalone"
            }
            fn schedule(
                &self,
                session: &Session,
                request: &ScheduleRequest,
            ) -> Result<ScheduleResult, ScheduleError> {
                self.0.schedule(session, request)
            }
        }
        let mcm = sim_mcm();
        let mut sim = ServeSim::with_scheduler(
            &mcm,
            Box::new(AlwaysStandalone(Standalone::new())),
            ServeConfig::default(),
        );
        let report = sim.run(&TrafficMix::arvr(2), 0.05).unwrap();
        assert!(report.completed > 0);
        assert!(report.policy_name.starts_with("custom-standalone"));
        // identical outcomes to the built-in Standalone policy: the
        // wrapper changes only the fingerprint identity
        let mut builtin = sim_with(&mcm, "Standalone", ServeConfig::default());
        let b = builtin.run(&TrafficMix::arvr(2), 0.05).unwrap();
        assert_eq!(report.latency, b.latency);
        assert_eq!(report.energy_j, b.energy_j);
    }

    #[test]
    fn incremental_rescheduling_kicks_in_on_batch_only_changes() {
        let mcm = sim_mcm();
        // cache off isolates the fast path: every round is a "miss", and any
        // round whose tenant set matches the previous one (only queue depths
        // differ) must reuse the prior placement instead of searching
        let cfg = ServeConfig {
            use_cache: false,
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::new(&mcm, cfg);
        let report = sim.run(&TrafficMix::arvr(1), 0.25).unwrap();
        assert!(
            report.incremental_reschedules > 0,
            "recurring frame mixes repeat tenant sets: {report:?}"
        );
        assert!((report.incremental_reschedules as usize) < report.windows_scheduled);
        assert_eq!(
            sim.incremental_reschedules(),
            report.incremental_reschedules
        );
    }

    #[test]
    fn incremental_chain_is_bounded() {
        use crate::traffic::{ArrivalProcess, RequestStream};
        use scar_workloads::{zoo, UseCase};
        // a single Poisson tenant: every scheduling round shares one shape
        // (only the queue depth changes), so chains grow without bound
        // unless the staleness cap cuts them
        let single = TrafficMix::new(
            "one-tenant",
            UseCase::Datacenter,
            vec![RequestStream {
                model: zoo::bert_large(),
                samples_per_request: 1,
                arrivals: ArrivalProcess::Poisson { rate_hz: 400.0 },
                deadline_s: None,
            }],
            0x5EED,
        );
        let mcm = het_sides_3x3(Profile::Datacenter);
        let count = |max_chain: usize| {
            let cfg = ServeConfig {
                use_cache: false,
                max_incremental_chain: max_chain,
                ..ServeConfig::default()
            };
            let mut sim = ServeSim::new(&mcm, cfg);
            let r = sim.run(&single, 0.5).unwrap();
            (r.incremental_reschedules, r.windows_scheduled as u64)
        };
        let (capped, rounds) = count(1);
        let (loose, loose_rounds) = count(usize::MAX);
        assert!(loose_rounds > 2, "mix must schedule repeatedly");
        assert!(capped > 0, "cap 1 still allows alternating reuse");
        assert!(
            capped < loose,
            "a tight chain cap must force extra searches ({capped} vs {loose})"
        );
        // with a cap of 1, at most every other round can be seeded; with no
        // cap, every round after the first is seeded (one shape throughout)
        assert!(capped <= rounds.div_ceil(2));
        assert_eq!(loose, loose_rounds - 1);
    }

    #[test]
    fn incremental_disabled_always_searches() {
        let mcm = sim_mcm();
        let cfg = ServeConfig {
            use_cache: false,
            incremental: false,
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::new(&mcm, cfg);
        let report = sim.run(&TrafficMix::arvr(1), 0.1).unwrap();
        assert_eq!(report.incremental_reschedules, 0);
    }

    #[test]
    fn baselines_never_take_the_incremental_path() {
        // Standalone does not support rescheduling, so even with the
        // incremental knob on and the cache off, every round is scheduled
        // fresh through the trait
        let mcm = sim_mcm();
        let cfg = ServeConfig {
            use_cache: false,
            incremental: true,
            ..ServeConfig::default()
        };
        let mut sim = sim_with(&mcm, "Standalone", cfg);
        let report = sim.run(&TrafficMix::arvr(1), 0.1).unwrap();
        assert_eq!(report.incremental_reschedules, 0);
    }

    #[test]
    fn tiny_cache_capacity_evicts_and_still_serves() {
        let mcm = sim_mcm();
        let cfg = ServeConfig {
            cache_capacity: 1,
            incremental: false,
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::new(&mcm, cfg);
        let report = sim.run(&TrafficMix::arvr(1), 0.25).unwrap();
        let offered = TrafficMix::arvr(1).arrivals(0.25).len();
        assert_eq!(report.completed, offered);
        assert!(sim.cache().len() <= 1);
        assert!(
            report.cache.evictions > 0,
            "a 1-entry cache under a multi-shape mix must evict: {:?}",
            report.cache
        );
    }

    /// The warm-start path end to end: a simulator with `cost_db_path`
    /// persists its cost database, and a *fresh* simulator at the same
    /// path serves the same traffic with zero MAESTRO evaluations and a
    /// bit-identical report. The two 1 s mixes on Het-Sides pin their
    /// committed cold evaluation counts (124 and 56).
    #[test]
    fn cost_db_path_warm_start_skips_maestro() {
        let path = std::env::temp_dir().join("scar_serve_sim_costdb_test.json");
        for (profile, mix, horizon_s, cold_evaluations) in [
            (Profile::ArVr, TrafficMix::arvr(1), 0.1, None),
            (
                Profile::Datacenter,
                TrafficMix::datacenter(0x5CA2),
                1.0,
                Some(124),
            ),
            (Profile::ArVr, TrafficMix::arvr(0x5CA2), 1.0, Some(56)),
        ] {
            // a fresh snapshot per mix isolates each cold start
            std::fs::remove_file(&path).ok();
            let mcm = het_sides_3x3(profile);
            let cfg = || ServeConfig {
                cost_db_path: Some(path.clone()),
                ..ServeConfig::default()
            };
            let label = &mix.name;

            let mut cold = ServeSim::new(&mcm, cfg());
            let cold_report = cold.run(&mix, horizon_s).unwrap();
            assert!(
                cold_report.cost_evaluations > 0,
                "{label}: cold start pays the cost model"
            );
            if let Some(n) = cold_evaluations {
                assert_eq!(cold_report.cost_evaluations, n, "{label}: cold evaluations");
            }
            assert!(path.exists(), "{label}: run must persist the snapshot");

            let mut warm = ServeSim::new(&mcm, cfg());
            assert!(
                warm.session().cached_costs() > 0,
                "{label}: snapshot restored"
            );
            let warm_report = warm.run(&mix, horizon_s).unwrap();
            assert_eq!(
                warm_report.cost_evaluations, 0,
                "{label}: warm start must not invoke MAESTRO"
            );
            // identical serving outcomes — the snapshot changes cost, not content
            assert_eq!(warm_report.latency, cold_report.latency, "{label}");
            assert_eq!(warm_report.energy_j, cold_report.energy_j, "{label}");
            assert_eq!(warm_report.makespan_s, cold_report.makespan_s, "{label}");
            assert_eq!(
                warm_report.windows_scheduled, cold_report.windows_scheduled,
                "{label}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "cost_db_path")]
    fn corrupt_cost_snapshot_is_a_configuration_error() {
        let mcm = sim_mcm();
        let path = std::env::temp_dir().join("scar_serve_sim_corrupt_costdb.json");
        std::fs::write(&path, "{ definitely not a snapshot").unwrap();
        let cfg = ServeConfig {
            cost_db_path: Some(path),
            ..ServeConfig::default()
        };
        // constructor must reject, not serve on garbage costs (the stray
        // temp file is rewritten on every test run)
        let _ = ServeSim::new(&mcm, cfg);
    }

    #[test]
    fn parallelism_settings_produce_identical_reports() {
        let mcm = sim_mcm();
        let mix = TrafficMix::arvr(5);
        let mut reports = Vec::new();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(8),
        ] {
            let cfg = ServeConfig {
                parallelism,
                ..ServeConfig::default()
            };
            let mut sim = ServeSim::new(&mcm, cfg);
            reports.push(sim.run(&mix, 0.1).unwrap());
        }
        assert_eq!(reports[0], reports[1], "Serial vs Fixed(2)");
        assert_eq!(reports[0], reports[2], "Serial vs Fixed(8)");
    }

    /// Preemption fires on a bursty deadline mix: mid-window splices are
    /// counted, and conservation of arrivals holds — every offered request
    /// completes (or is rejected), exactly once, splices notwithstanding.
    #[test]
    fn preemption_splices_and_conserves_requests() {
        let mcm = sim_mcm();
        let mix = TrafficMix::arvr(7).reshaped(crate::TrafficShape::Burst);
        let cfg = ServeConfig {
            preemption: true,
            nsplits: 2,
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::new(&mcm, cfg);
        let report = sim.run(&mix, 0.25).unwrap();
        let offered = mix.arrivals(0.25).len();
        assert_eq!(report.offered, offered);
        assert_eq!(report.completed + report.rejected, offered);
        assert_eq!(report.rejected, 0, "accept-all rejects nothing");
        assert!(
            report.preemptions > 0,
            "bursty arrivals over multi-window rounds must splice: {report:?}"
        );
        assert_eq!(sim.preemptions(), report.preemptions);
    }

    /// Preemption off (the default) is the pre-splice loop bit-for-bit,
    /// and the counter stays zero.
    #[test]
    fn preemption_disabled_never_splices() {
        let mcm = sim_mcm();
        let mut sim = ServeSim::with_defaults(&mcm);
        let report = sim.run(&TrafficMix::arvr(1), 0.1).unwrap();
        assert_eq!(report.preemptions, 0);
    }

    /// The rate gate: with a threshold above every stream's rate, no
    /// arrival qualifies and nothing splices even with preemption on.
    #[test]
    fn preempt_rate_gate_filters_triggers() {
        let mcm = sim_mcm();
        let mix = TrafficMix::arvr(7).reshaped(crate::TrafficShape::Burst);
        let run_with = |min_rate: f64| {
            let cfg = ServeConfig {
                preemption: true,
                nsplits: 2,
                preempt_min_rate_hz: min_rate,
                ..ServeConfig::default()
            };
            ServeSim::new(&mcm, cfg).run(&mix, 0.25).unwrap()
        };
        let gated = run_with(1e9);
        assert_eq!(gated.preemptions, 0, "no stream reaches 1 GHz");
        let open = run_with(0.0);
        assert!(open.preemptions > 0);
    }

    /// Admission control sheds load and the report accounts it: offered =
    /// completed + rejected, per stream and in total.
    #[test]
    fn load_shedding_rejects_and_accounts() {
        let mcm = sim_mcm();
        // overload: 3× the nominal AR/VR rates against a 1-deep queue bound
        let mix = TrafficMix::arvr(3).throttled(3.0);
        let cfg = ServeConfig {
            admission: crate::AdmissionKind::LoadShed { max_queue: 1 },
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::new(&mcm, cfg);
        assert_eq!(sim.admission_name(), "load-shed");
        let report = sim.run(&mix, 0.1).unwrap();
        let offered = mix.arrivals(0.1).len();
        assert_eq!(report.offered, offered);
        assert_eq!(report.completed + report.rejected, offered);
        assert!(report.rejected > 0, "a 1-deep bound under 3× load sheds");
        assert_eq!(
            report.per_stream.iter().map(|s| s.rejected).sum::<usize>(),
            report.rejected
        );
        assert_eq!(
            report
                .per_stream
                .iter()
                .map(|s| s.completed + s.rejected)
                .sum::<usize>(),
            offered
        );
    }

    /// A custom admission policy injected through `with_admission` takes
    /// the same path as the built-ins (here: reject everything — the
    /// simulator must terminate with zero completions, not hang).
    #[test]
    fn custom_admission_policy_rejects_everything() {
        use crate::admission::{AdmissionContext, AdmissionPolicy};
        struct RejectAll;
        impl AdmissionPolicy for RejectAll {
            fn name(&self) -> &str {
                "reject-all"
            }
            fn admit(&mut self, _r: &Request, _ctx: &AdmissionContext<'_>) -> bool {
                false
            }
        }
        let mcm = sim_mcm();
        let mut sim = ServeSim::with_defaults(&mcm).with_admission(Box::new(RejectAll));
        let report = sim.run(&TrafficMix::arvr(1), 0.1).unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.rejected, report.offered);
        assert_eq!(
            report.windows_scheduled, 0,
            "nothing admitted, nothing scheduled"
        );
    }

    #[test]
    fn burst_batches_are_capped() {
        let mcm = sim_mcm();
        let cfg = ServeConfig {
            max_batch_per_stream: 2,
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::new(&mcm, cfg);
        // a long horizon piles a deep backlog onto slow hardware; the cap
        // must still drain it (more scheduling rounds, bounded batches)
        let report = sim.run(&TrafficMix::arvr(3), 0.1).unwrap();
        assert!(report.windows_scheduled >= report.completed / (3 * 2));
    }
}
