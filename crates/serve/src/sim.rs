//! The event-driven serving loop.
//!
//! [`ServeSim`] drives any [`Scheduler`] under dynamic traffic. A run
//! ([`ServeSim::run_arrivals`], or [`ServeSim::run`] over a
//! [`TrafficMix`]'s own arrivals) repeats four steps over one per-run
//! state until every offered request has completed or been rejected:
//!
//! 1. **ingest** — every request that has arrived by the virtual clock
//!    passes admission control ([`crate::admission`]) into its stream's
//!    queue, or is rejected and counted;
//! 2. **assemble** — remainders carried over from a cut round, then each
//!    stream's queued requests, become the round's *parts*: a stream, its
//!    drained requests (queue depth becomes the batch size, capped by
//!    `max_batch_per_stream`), and an optional remainder model. Nothing
//!    else is built: the *live* [`Scenario`] the parts describe, and the
//!    owned [`ScheduleRequest`] around it, exist only on a cache miss or
//!    for a round formed right after a splice;
//! 3. **schedule** — the configured scheduler — held as a
//!    `Box<dyn Scheduler>`, so SCAR, a paper baseline, and any
//!    user-provided policy take the same path — answers the round over
//!    the simulator's [`Session`] (one shared cost database), consulting
//!    the [`ScheduleCache`] first. A plain round (no cut instance) takes
//!    its cache key from a per-run memo: the hasher state of everything
//!    the key hashes before the batch vector, stored under the round's
//!    ordered stream list, with only the batches folded in per round —
//!    the same value [`fingerprint_parts_in_context`] gives over the live
//!    scenario, so a cache hit hashes no layer and clones no model;
//! 4. **execute** — virtual time advances by the evaluated schedule's
//!    window latencies ([`ScheduleResult::window_latencies`]), and each
//!    model's requests complete at its own last-active-window offset
//!    ([`ScheduleResult::model_completion_s`]).
//!
//! The [`ServeReport`] — per-request latency, deadline hits and misses,
//! energy, throughput, and the round counters — is built from the run's
//! tallies.
//!
//! Two fast paths sit in front of the full search on a scheduling round:
//! the bounded LRU [`ScheduleCache`] (exact fingerprint match), and —
//! on a cache miss whose live scenario differs from the previously
//! scheduled one *only in batch sizes* — incremental rescheduling, which
//! re-evaluates the previous round's segmentation/placement as a seeded
//! candidate ([`Scheduler::reschedule`]) instead of searching. After
//! eight consecutive seeded rounds the next miss searches again, so a
//! drifting batch mix periodically gets a placement searched for it.
//!
//! Two overload mechanisms sit around the scheduling rounds (both
//! opt-in; the defaults reproduce the plain loop bit-for-bit):
//! *admission control* gates every arrival at ingestion and counts
//! rejections, and *mid-window preemption* ([`ServeConfig::preemption`])
//! lets the execute step cut an in-flight schedule at the next window
//! (layer) boundary when a qualifying arrival lands: the executed prefix
//! completes, and partially executed models — as remainder models
//! resuming at their first unexecuted layer — are respliced into the
//! next round through [`Scheduler::preempt`].
//!
//! The simulator does no file I/O. Its cost database lives in the
//! [`Session`] it serves over ([`ServeSim::with_session`]), and whoever
//! opens a session persists it: [`Session::open`] before serving, a
//! bounded save after (the `serve_sim` binary and the fleet's shared
//! session both do).
//!
//! The loop is fully deterministic given the mix (seed included) and the
//! scheduler configuration: identical runs produce identical reports, for
//! any [`Parallelism`] setting (the search engine merges candidate
//! evaluations in generation order).

use crate::admission::{AdmissionContext, AdmissionKind, AdmissionPolicy};
use crate::cache::{
    fingerprint_parts_in_context, fold_batches, shape_prefix, CacheStats, ScheduleCache,
    ServeContext,
};
use crate::registry::PolicyRegistry;
use crate::report::{LatencySummary, ServeReport, StreamStats};
use crate::traffic::{Request, TrafficMix};
use scar_core::{
    OptMetric, Parallelism, ScheduleError, ScheduleRequest, ScheduleResult, Scheduler,
    SearchBudget, SearchKind, Session,
};
use scar_hash::StableHasher;
use scar_mcm::McmConfig;
use scar_telemetry::Telemetry;
use scar_workloads::{Model, Scenario, ScenarioModel};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Staleness bound on incremental rescheduling: after this many
/// consecutive seeded rounds the next miss runs a full search even if the
/// shape still matches, so a drifting tenant mix (batch sizes moving ever
/// further from the last-searched ones) periodically gets a placement
/// searched for its current batches.
const MAX_INCREMENTAL_CHAIN: usize = 8;

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
    /// traffic ([`Scheduler::preempt`]). An arrival qualifies when the
    /// admission policy judges it worth preempting for
    /// ([`AdmissionPolicy::preempt_worthy`]). Off by default:
    /// boundary-only rescheduling, the pre-preemption behavior
    /// bit-for-bit.
    pub preemption: bool,
    /// Worker-pool sizing for candidate evaluation. Wall-clock only:
    /// reports are bit-identical across settings.
    pub parallelism: Parallelism,
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
            admission: AdmissionKind::AcceptAll,
            preemption: false,
            parallelism: Parallelism::Auto,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One live model of a scheduling round: the stream it serves and the
/// requests folded into its batch (the stream's per-request samples
/// times the request count).
struct RoundPart {
    stream: usize,
    reqs: Vec<Request>,
    /// For a part carried out of a cut round: the unexecuted remainder of
    /// its model. `None` serves the stream's whole model.
    remainder: Option<Model>,
}

impl RoundPart {
    /// The model this part runs: its remainder, or its stream's model.
    fn model<'a>(&'a self, mix: &'a TrafficMix) -> &'a Model {
        self.remainder
            .as_ref()
            .unwrap_or(&mix.streams[self.stream].model)
    }

    /// The part's live batch: its requests times its stream's per-request
    /// samples.
    fn batch(&self, mix: &TrafficMix) -> u64 {
        self.reqs.len() as u64 * mix.streams[self.stream].samples_per_request
    }
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

/// The state of one [`ServeSim::run_arrivals`] call, driven by the loop's
/// four steps: the arrival cursor, the virtual clock, the queues, the
/// carried remainders, the cut instance, and the run's tallies.
struct Run<'m> {
    mix: &'m TrafficMix,
    arrivals: Vec<Request>,
    /// Index of the first arrival not yet ingested.
    next: usize,
    /// The virtual clock, seconds.
    t: f64,
    queues: Vec<VecDeque<Request>>,
    /// Unfinished parts of a cut round, respliced into the next one.
    carried: Vec<RoundPart>,
    /// The cut instance, handed to [`Scheduler::preempt`] by the next
    /// round.
    cut: Option<Rc<ScheduleResult>>,
    /// The admission cost-DB probe per stream, memoized for the run.
    min_service: Vec<Option<f64>>,
    context: ServeContext,
    /// The plain-round key prefixes, memoized for the run.
    shapes: ShapeMemo,
    /// Completion latencies per stream, seconds.
    latencies: Vec<Vec<f64>>,
    /// Deadline misses per stream.
    misses: Vec<usize>,
    /// Admission rejections per stream.
    rejected: Vec<usize>,
    /// Completed requests that carried a deadline.
    deadline_bound: usize,
    rounds: usize,
    preemptions: u64,
    incremental_reschedules: u64,
    full_searches: u64,
    energy_j: f64,
    makespan_s: f64,
    /// Virtual time spent executing windows (the makespan minus idle
    /// jumps) — the numerator of a replica's utilization.
    busy_s: f64,
    /// The cache and the session outlive a run: their counters at its
    /// start, so the report counts this run only.
    cache_before: CacheStats,
    evaluations_before: u64,
}

impl Run<'_> {
    /// Requests completed or rejected so far.
    fn resolved(&self) -> usize {
        self.latencies.iter().map(Vec::len).sum::<usize>() + self.rejected.iter().sum::<usize>()
    }

    /// Completes `part`'s requests at virtual time `done_at`.
    fn complete(&mut self, part: &RoundPart, done_at: f64) {
        self.makespan_s = self.makespan_s.max(done_at);
        for r in &part.reqs {
            self.latencies[part.stream].push(done_at - r.arrival_s);
            if let Some(deadline) = r.deadline_s {
                self.deadline_bound += 1;
                self.misses[part.stream] += usize::from(done_at > deadline);
            }
        }
    }
}

/// A run's memo of plain-round key prefixes: the [`shape_prefix`] hasher
/// state of each ordered stream list a plain round has formed. A plain
/// round runs every stream's whole model, so its batch-free key content is
/// fixed by which streams it serves (the run fixes the context, and the
/// simulator the MCM, metric, budget, and scheduler); only its batches
/// change from round to round.
#[derive(Default)]
struct ShapeMemo {
    prefixes: HashMap<Vec<usize>, StableHasher>,
    /// The current round's stream list, reused so a memo hit allocates
    /// nothing.
    streams: Vec<usize>,
}

impl ShapeMemo {
    /// The prefix for `parts`' stream list, from `build` on first sight.
    fn prefix(
        &mut self,
        parts: &[RoundPart],
        build: impl FnOnce() -> StableHasher,
    ) -> StableHasher {
        self.streams.clear();
        self.streams.extend(parts.iter().map(|p| p.stream));
        match self.prefixes.get(self.streams.as_slice()) {
            Some(prefix) => prefix.clone(),
            None => {
                let prefix = build();
                self.prefixes.insert(self.streams.clone(), prefix.clone());
                prefix
            }
        }
    }
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
    /// staleness chain bounded by [`MAX_INCREMENTAL_CHAIN`]).
    incremental_chain: usize,
    /// The telemetry handle (a clone of [`ServeConfig::telemetry`]):
    /// spans and counters are recorded from this coordinating thread
    /// only, never inside evaluation workers.
    tel: Telemetry,
}

impl std::fmt::Debug for ServeSim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeSim")
            .field("mcm", &self.mcm.name())
            .field("scheduler", &self.scheduler.name())
            .field("cfg", &self.cfg)
            .field("cache", &self.cache.stats())
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
    /// object takes the exact same path as the built-in policies — over a
    /// fresh [`Session`] recording into [`ServeConfig::telemetry`].
    pub fn with_scheduler(
        mcm: &'a McmConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: ServeConfig,
    ) -> Self {
        let session = Session::new().with_telemetry(cfg.telemetry.clone());
        Self::with_session(mcm, scheduler, cfg, session)
    }

    /// [`ServeSim::with_scheduler`] over a caller-provided [`Session`] —
    /// a warm-started one ([`Session::open`]), or the fleet's shared one,
    /// threaded through every replica so warm entries from replica `k`
    /// serve replica `k+1`. The session keeps whatever telemetry the
    /// caller attached, and persisting it stays with the caller.
    pub fn with_session(
        mcm: &'a McmConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: ServeConfig,
        session: Session,
    ) -> Self {
        let tel = cfg.telemetry.clone();
        let cache = ScheduleCache::with_capacity(cfg.cache_capacity).with_telemetry(tel.clone());
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
            tel,
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

    /// The scheduler serving this simulator (e.g. for recording artifacts
    /// with [`scar_core::ScheduleArtifact::of`], which captures its name
    /// and configuration).
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.scheduler.as_ref()
    }

    /// The state of a run over `arrivals` from `mix`, before its first
    /// step.
    fn new_run<'m>(&self, mix: &'m TrafficMix, arrivals: Vec<Request>) -> Run<'m> {
        let streams = mix.streams.len();
        Run {
            mix,
            next: 0,
            t: 0.0,
            queues: vec![VecDeque::new(); streams],
            carried: Vec::new(),
            cut: None,
            min_service: vec![None; streams],
            context: self.serve_context(mix),
            shapes: ShapeMemo::default(),
            latencies: vec![Vec::new(); streams],
            misses: vec![0; streams],
            rejected: vec![0; streams],
            deadline_bound: 0,
            rounds: 0,
            preemptions: 0,
            incremental_reschedules: 0,
            full_searches: 0,
            energy_j: 0.0,
            makespan_s: 0.0,
            busy_s: 0.0,
            cache_before: self.cache.stats(),
            evaluations_before: self.session.cost_evaluations(),
            arrivals,
        }
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
        let mut run = self.new_run(mix, arrivals);
        // local handle so the root span never borrows `self` across the
        // `&mut self` steps below; every per-phase interval nests under
        // it (trace coverage is measured against its extent)
        let tel = self.tel.clone();
        let mut run_span = tel.span("serve.run");
        run_span.push_arg("mix", mix.name.as_str());
        run_span.push_arg("offered", run.arrivals.len());
        while run.resolved() < run.arrivals.len() {
            self.ingest(&mut run);
            if run.carried.is_empty() && run.queues.iter().all(VecDeque::is_empty) {
                match run.arrivals.get(run.next) {
                    // idle: jump to the next arrival
                    Some(next) => run.t = next.arrival_s,
                    // every remaining offered request was rejected
                    None => break,
                }
                continue;
            }
            let parts = self.assemble(&mut run);
            let result = self.schedule_live(&mut run, &parts)?;
            self.execute(&mut run, parts, &result);
        }
        drop(run_span);
        Ok(self.report(run))
    }

    /// The ingest step: every arrival up to the virtual clock passes
    /// admission into its stream's queue, or is rejected and counted.
    /// Each decision records a `serve.admission` span, the admitted /
    /// rejected counters, and a queue-depth sample.
    fn ingest(&mut self, run: &mut Run<'_>) {
        while let Some(&r) = run.arrivals.get(run.next).filter(|r| r.arrival_s <= run.t) {
            run.next += 1;
            let ctx = AdmissionContext {
                now_s: run.t,
                queue_depth: run.queues[r.stream].len(),
                stream: &run.mix.streams[r.stream],
                min_service_s: self.min_service_s(&mut run.min_service, run.mix, r.stream),
            };
            let mut span = self.tel.span("serve.admission");
            let admitted = self.admission.admit(&r, &ctx);
            span.push_arg("admitted", admitted);
            self.tel
                .observe("serve.queue_depth", ctx.queue_depth as f64);
            if admitted {
                self.tel.count("serve.admission.admitted", 1);
                run.queues[r.stream].push_back(r);
            } else {
                self.tel.count("serve.admission.rejected", 1);
                run.rejected[r.stream] += 1;
            }
        }
    }

    /// The admission cost-DB probe for `stream`, when the policy reads it
    /// ([`AdmissionPolicy::wants_cost_probe`]): [`Session::min_service_s`]
    /// at the stream's per-request batch — a lower bound on one request's
    /// service latency. Memoized per run in `memo`, and the probed costs
    /// memoize into the session's database, so a warm-started session
    /// probes at zero MAESTRO evaluations.
    fn min_service_s(
        &self,
        memo: &mut [Option<f64>],
        mix: &TrafficMix,
        stream: usize,
    ) -> Option<f64> {
        self.admission.wants_cost_probe().then(|| {
            *memo[stream].get_or_insert_with(|| {
                let _g = self.tel.span("serve.admission.probe").arg("stream", stream);
                let s = &mix.streams[stream];
                self.session
                    .min_service_s(self.mcm, &s.model, s.samples_per_request)
            })
        })
    }

    /// The assemble step: the round's parts — carried remainders (in
    /// carry order), then each stream's queued requests up to
    /// `max_batch_per_stream`. The live scenario they describe is built
    /// only when the schedule step needs it ([`Self::live_request`]).
    fn assemble(&self, run: &mut Run<'_>) -> Vec<RoundPart> {
        let mut parts = std::mem::take(&mut run.carried);
        for (stream, q) in run.queues.iter_mut().enumerate() {
            if !q.is_empty() {
                let n = (q.len() as u64).min(self.cfg.max_batch_per_stream) as usize;
                let reqs = q.drain(..n).collect();
                parts.push(RoundPart {
                    stream,
                    reqs,
                    remainder: None,
                });
            }
        }
        parts
    }

    /// The execute step: advances the clock through the round's schedule
    /// and completes each part at its model's offset — or, when a
    /// qualifying arrival lands mid-schedule, executes windows up to the
    /// one in flight, completes the models that finished, and carries the
    /// rest (with the cut instance) into the next round.
    fn execute(&self, run: &mut Run<'_>, parts: Vec<RoundPart>, result: &Rc<ScheduleResult>) {
        run.rounds += 1;
        let mix = run.mix;
        let windows = result.windows();
        let window_total: f64 = windows.iter().map(|win| win.latency_s).sum();
        let cut = if self.cfg.preemption {
            self.splice_scan(run, &result.window_latencies())
        } else {
            None
        };
        let mut splice = cut.map(|w| self.tel.span("serve.splice").arg("cut_window", w));
        let (executed_s, energy_j) = match cut {
            None => (window_total, result.total().energy_j),
            Some(w) => (
                windows[..=w].iter().map(|win| win.latency_s).sum(),
                windows[..=w].iter().map(|win| win.energy_j).sum(),
            ),
        };
        for (mi, mut part) in parts.into_iter().enumerate() {
            let layers = part.model(mix).num_layers();
            let executed_end = match cut {
                None => layers,
                Some(w) => windows[..=w]
                    .iter()
                    .flat_map(|win| &win.models)
                    .filter(|m| m.model == mi)
                    .map(|m| m.layers.end)
                    .max()
                    .unwrap_or(0),
            };
            if executed_end >= layers {
                let offset = result.model_completion_s(mi).unwrap_or(window_total);
                run.complete(&part, run.t + offset);
            } else {
                part.remainder = Some(remainder_model(part.model(mix), executed_end));
                run.carried.push(part);
            }
        }
        run.energy_j += energy_j;
        run.t += executed_s;
        run.busy_s += executed_s;
        if let Some(splice) = &mut splice {
            run.preemptions += 1;
            run.cut = Some(Rc::clone(result));
            splice.push_arg("carried", run.carried.len());
        }
    }

    /// Where a qualifying pending arrival cuts the round (see
    /// [`splice_point`]). Qualifying means worth preempting for in the
    /// admission policy's judgment: a deadline-hopeless arrival that
    /// admission will reject anyway must not splice — the reschedule
    /// would serve nobody.
    fn splice_scan(&self, run: &mut Run<'_>, lats: &[f64]) -> Option<usize> {
        let mut scan = self.tel.span("serve.splice.scan");
        scan.push_arg("pending", run.arrivals.len() - run.next);
        let mix = run.mix;
        let (queues, memo) = (&run.queues, &mut run.min_service);
        let cut = splice_point(&run.arrivals[run.next..], run.t, lats, |a| {
            let ctx = AdmissionContext {
                now_s: a.arrival_s,
                queue_depth: queues[a.stream].len(),
                stream: &mix.streams[a.stream],
                min_service_s: self.min_service_s(memo, mix, a.stream),
            };
            self.admission.preempt_worthy(a, &ctx)
        });
        scan.push_arg("cut", cut.is_some());
        cut
    }

    /// The run's report, built from its tallies; the run's deterministic
    /// counters are mirrored into the metrics registry (cache
    /// hit/miss/eviction counters are mirrored by the cache itself as
    /// they happen).
    fn report(&self, run: Run<'_>) -> ServeReport {
        let mix = run.mix;
        let offered = run.arrivals.len();
        let completed: usize = run.latencies.iter().map(Vec::len).sum();
        let rejected: usize = run.rejected.iter().sum();
        debug_assert_eq!(
            completed + rejected,
            offered,
            "conservation of arrivals: every offered request completes or is rejected"
        );
        let after = self.cache.stats();
        let cache = CacheStats {
            hits: after.hits - run.cache_before.hits,
            misses: after.misses - run.cache_before.misses,
            evictions: after.evictions - run.cache_before.evictions,
        };
        let cost_evaluations = self.session.cost_evaluations() - run.evaluations_before;
        let tel = &self.tel;
        tel.count("serve.offered", offered as u64);
        tel.count("serve.completed", completed as u64);
        tel.count("serve.rejected", rejected as u64);
        tel.count("serve.windows_scheduled", run.rounds as u64);
        tel.count("serve.preemptions", run.preemptions);
        tel.count("serve.incremental_reschedules", run.incremental_reschedules);
        tel.count("serve.full_searches", run.full_searches);
        tel.count("maestro.cost_evaluations", cost_evaluations);
        let per_stream = mix
            .streams
            .iter()
            .enumerate()
            .map(|(si, s)| StreamStats {
                model_name: s.model.name().to_string(),
                completed: run.latencies[si].len(),
                rejected: run.rejected[si],
                latency: LatencySummary::of(&run.latencies[si]),
                deadline_misses: run.misses[si],
                has_deadlines: s.deadline_s.is_some(),
            })
            .collect();
        ServeReport {
            mix_name: mix.name.clone(),
            policy_name: format!("{} on {}", self.scheduler.name(), self.mcm.name()),
            makespan_s: run.makespan_s,
            busy_s: run.busy_s,
            offered,
            completed,
            rejected,
            preemptions: run.preemptions,
            windows_scheduled: run.rounds,
            throughput_rps: if run.makespan_s > 0.0 {
                completed as f64 / run.makespan_s
            } else {
                0.0
            },
            energy_j: run.energy_j,
            latency: LatencySummary::of(&run.latencies.concat()),
            deadline_misses: run.misses.iter().sum(),
            deadline_bound: run.deadline_bound,
            cache,
            incremental_reschedules: run.incremental_reschedules,
            full_searches: run.full_searches,
            cost_evaluations,
            per_stream,
        }
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
        self.request_for(live.clone())
    }

    /// [`Self::schedule_request`] over an owned scenario.
    fn request_for(&self, live: Scenario) -> ScheduleRequest {
        ScheduleRequest::new(live, self.mcm.clone())
            .metric(self.cfg.metric.clone())
            .budget(self.cfg.budget.clone())
            .parallelism(self.cfg.parallelism)
    }

    /// The request of a round that needs one — a cache miss, or a round
    /// formed right after a splice: the live scenario its parts fold into
    /// (one model per part, batch = requests × samples), plus a trace tag
    /// (the scenario's name) when tracing is on. The tag is observational
    /// only — never fingerprinted, never consulted — so tagged and
    /// untagged requests schedule identically.
    fn live_request(&self, run: &Run<'_>, parts: &[RoundPart]) -> ScheduleRequest {
        let mix = run.mix;
        let models = parts
            .iter()
            .map(|p| ScenarioModel {
                model: p.model(mix).clone(),
                batch: p.batch(mix),
            })
            .collect();
        let name = format!("{} @ {:.4}s", mix.name, run.t);
        let request = self.request_for(Scenario::new(name, mix.use_case, models));
        if self.tel.trace_enabled() {
            let tag = request.scenario.name().to_string();
            request.trace_tag(tag)
        } else {
            request
        }
    }

    /// A plain round's cache keys `(full, shape)` — exactly
    /// [`fingerprint_parts_in_context`] over its live scenario, without
    /// building it: the run's memo supplies the shape prefix of the
    /// round's stream list, and only the batches are folded in.
    fn plain_keys(&self, run: &mut Run<'_>, parts: &[RoundPart]) -> (u64, u64) {
        debug_assert!(
            parts.iter().all(|p| p.remainder.is_none()),
            "a plain round runs whole stream models"
        );
        let (mix, context) = (run.mix, run.context);
        let prefix = run.shapes.prefix(parts, || {
            shape_prefix(
                mix.use_case,
                parts.iter().map(|p| &mix.streams[p.stream].model),
                self.mcm,
                &self.cfg.metric,
                &self.cfg.budget,
                self.scheduler.as_ref(),
                context,
            )
        });
        fold_batches(prefix, parts.iter().map(|p| p.batch(mix)))
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

    /// The schedule step: answers the round's live scenario through the
    /// configured scheduler — schedule cache first, then the
    /// incremental-rescheduling fast path (previous round's placement
    /// re-evaluated when only batch sizes changed), then the full
    /// [`Scheduler::schedule`]. Returns a shared pointer so cache hits
    /// stay allocation-free.
    ///
    /// Incremental results are cached like searched ones, so a recurring
    /// batch variant pays the seeded re-evaluation once and is an O(1) hit
    /// afterwards — an entry memoizes the round's outcome, not specifically
    /// a full search (see the [`crate::cache`] docs).
    ///
    /// A round formed right after a mid-window splice (the run holds the
    /// cut instance) takes the same probe → miss → store path, but routes
    /// its miss through [`Scheduler::preempt`] and is keyed by the request
    /// fingerprint *combined with* the scheduler's hash of the cut
    /// instance. A preemption-aware scheduler may legitimately answer
    /// differently than a cold `schedule` for the same request, so the
    /// preempt key never collides with the plain-request key; but
    /// `Scheduler::preempt` is deterministic in `(request, in_flight)`, so
    /// repeated identical splices (replay, recurring burst patterns) hit
    /// instead of re-searching.
    fn schedule_live(
        &mut self,
        run: &mut Run<'_>,
        parts: &[RoundPart],
    ) -> Result<Rc<ScheduleResult>, ScheduleError> {
        let tel = self.tel.clone();
        let in_flight = run.cut.take();
        let mut probe = tel.span("serve.cache.probe");
        // a plain round is keyed from the run's shape memo and builds
        // nothing: its live scenario and owned request exist only on a
        // miss. A spliced round needs the request for its key, and never
        // seeds the incremental path (its remainder models are one-off),
        // so it has no shape.
        let (key, shape, request) = match &in_flight {
            None => {
                let (key, shape) = self.plain_keys(run, parts);
                (key, self.incremental_enabled().then_some(shape), None)
            }
            Some(cut) => {
                let request = self.live_request(run, parts);
                let (key, _) = fingerprint_parts_in_context(
                    &request.scenario,
                    self.mcm,
                    &self.cfg.metric,
                    &self.cfg.budget,
                    self.scheduler.as_ref(),
                    run.context,
                );
                let mut h = StableHasher::new();
                "preempt".hash(&mut h);
                key.hash(&mut h);
                // the scheduler hashes only what its `preempt` actually
                // reads from the cut instance (SCAR: the mined warm
                // hints), so cuts differing in irrelevant detail share
                // one cached splice
                self.scheduler
                    .preempt_fingerprint(&request, cut.schedule(), &mut h);
                (h.finish(), None, Some(request))
            }
        };
        let hit = if self.cfg.use_cache {
            self.cache.get(key)
        } else {
            None
        };
        probe.push_arg("hit", hit.is_some());
        drop(probe);
        let result = match hit {
            Some(hit) => hit,
            None => {
                let request = request.unwrap_or_else(|| self.live_request(run, parts));
                let mut sp = tel.span("serve.schedule");
                let result = if let Some(cut) = &in_flight {
                    sp.push_arg("kind", "preempt");
                    self.scheduler
                        .preempt(&self.session, &request, cut.schedule())?
                } else if let Some(reused) =
                    shape.and_then(|s| self.reschedule_incremental(&request, s))
                {
                    sp.push_arg("kind", "incremental");
                    run.incremental_reschedules += 1;
                    reused
                } else {
                    sp.push_arg("kind", "full");
                    let searched = self.scheduler.schedule(&self.session, &request)?;
                    self.incremental_chain = 0;
                    run.full_searches += 1;
                    searched
                };
                drop(sp);
                let result = Rc::new(result);
                if self.cfg.use_cache {
                    let _g = tel.span("serve.cache.store");
                    self.cache.insert(key, Rc::clone(&result));
                }
                result
            }
        };
        match shape {
            Some(shape) => self.last = Some((shape, Rc::clone(&result))),
            None => {
                self.incremental_chain = 0;
                self.last = None;
            }
        }
        Ok(result)
    }

    /// The incremental fast path: when the previous round's scenario had
    /// the same shape (same models on the same configuration — only batch
    /// sizes differ), re-evaluate its schedule instance as a seeded
    /// candidate. `None` when shapes differ, the staleness chain reached
    /// [`MAX_INCREMENTAL_CHAIN`], or the scheduler declines the seed
    /// ([`Scheduler::reschedule`]).
    fn reschedule_incremental(
        &mut self,
        request: &ScheduleRequest,
        shape: u64,
    ) -> Option<ScheduleResult> {
        if self.incremental_chain >= MAX_INCREMENTAL_CHAIN {
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
    }

    #[test]
    fn incremental_chain_is_bounded() {
        use crate::traffic::{ArrivalProcess, RequestStream};
        use scar_workloads::{zoo, UseCase};
        // a single Poisson tenant: every scheduling round shares one shape
        // (only the queue depth changes), so every round after the first
        // would be seeded unless the staleness bound cut the chain
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
        let cfg = ServeConfig {
            use_cache: false,
            ..ServeConfig::default()
        };
        let r = ServeSim::new(&mcm, cfg).run(&single, 1.0).unwrap();
        let rounds = r.windows_scheduled as u64;
        assert_eq!(rounds, 15, "the mix must schedule repeatedly");
        // one full search, then at most MAX_INCREMENTAL_CHAIN seeded
        // rounds, repeating
        let full = rounds.div_ceil(MAX_INCREMENTAL_CHAIN as u64 + 1);
        assert_eq!(full, 2);
        assert_eq!(r.full_searches, full, "{r:?}");
        assert_eq!(r.incremental_reschedules, rounds - full, "{r:?}");
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

    /// The warm-start path end to end: a session saved after a run and
    /// reopened with [`Session::open`] serves the same traffic with zero
    /// MAESTRO evaluations and a bit-identical report. The two 1 s mixes
    /// on Het-Sides pin their committed cold evaluation counts (124 and
    /// 56).
    #[test]
    fn reopened_session_warm_start_skips_maestro() {
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
            let open = || {
                let session = Session::open(&path).expect("a missing or saved snapshot opens");
                let cfg = ServeConfig::default();
                let scheduler = PolicyRegistry::with_builtins()
                    .build("SCAR", &cfg)
                    .expect("built-in policy");
                ServeSim::with_session(&mcm, scheduler, cfg, session)
            };
            let label = &mix.name;

            let mut cold = open();
            assert_eq!(cold.session().cached_costs(), 0, "{label}: missing file");
            let cold_report = cold.run(&mix, horizon_s).unwrap();
            assert!(
                cold_report.cost_evaluations > 0,
                "{label}: cold start pays the cost model"
            );
            if let Some(n) = cold_evaluations {
                assert_eq!(cold_report.cost_evaluations, n, "{label}: cold evaluations");
            }
            cold.session().save_costs(&path).unwrap();

            let mut warm = open();
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

    /// A plain round's memoized keys are exactly the full fingerprint of
    /// the live scenario it would build: every stream subset (in stream
    /// order) at several batches, under a non-default context, with and
    /// without an inter-MCM fabric.
    #[test]
    fn plain_round_keys_equal_the_full_fingerprint() {
        use scar_mcm::InterconnectSpec;
        for (mix, profile) in [
            (TrafficMix::arvr(1), Profile::ArVr),
            (TrafficMix::datacenter(1), Profile::Datacenter),
        ] {
            let mix = mix.reshaped(crate::TrafficShape::Burst);
            let plain = het_sides_3x3(profile);
            let fabric = plain
                .clone()
                .with_interconnect(Some(InterconnectSpec::nop()));
            for mcm in [&plain, &fabric] {
                let cfg = ServeConfig {
                    admission: crate::AdmissionKind::DeadlineFeasible,
                    ..ServeConfig::default()
                };
                let sim = ServeSim::new(mcm, cfg);
                let mut run = sim.new_run(&mix, Vec::new());
                assert_ne!(run.context.admission, 0);
                assert_ne!(run.context.traffic_shape, 0);
                let streams = mix.streams.len();
                for subset in 1..1u32 << streams {
                    for requests in [1, 7, 32] {
                        let parts: Vec<RoundPart> = (0..streams)
                            .filter(|s| subset >> s & 1 == 1)
                            .map(|stream| RoundPart {
                                stream,
                                reqs: vec![
                                    Request {
                                        id: 0,
                                        stream,
                                        arrival_s: 0.0,
                                        deadline_s: None,
                                    };
                                    requests
                                ],
                                remainder: None,
                            })
                            .collect();
                        let live = sim.live_request(&run, &parts).scenario;
                        let full = fingerprint_parts_in_context(
                            &live,
                            mcm,
                            &sim.cfg.metric,
                            &sim.cfg.budget,
                            sim.scheduler(),
                            run.context,
                        );
                        assert_eq!(
                            sim.plain_keys(&mut run, &parts),
                            full,
                            "{} on {}: streams {subset:#b}, {requests} requests",
                            mix.name,
                            mcm.name()
                        );
                    }
                }
                assert_eq!(run.shapes.prefixes.len(), (1 << streams) - 1);
            }
        }
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
