//! The uniform scheduling API: [`Scheduler`], [`Session`], and the
//! session-scoped request/response types.
//!
//! The paper compares SCAR against Standalone and NN-baton-style baselines
//! across many MCM strategies and scenarios. All of them answer the same
//! question — *how should this scenario run on this package?* — so all of
//! them implement one trait:
//!
//! * [`ScheduleRequest`] bundles everything a scheduling call depends on:
//!   the scenario, the MCM, the optimization metric, and the search budget
//!   (which carries the RNG seed and the evaluation [`Parallelism`]).
//!   Requests serialize to JSON, so experiment configurations are
//!   version-controllable artifacts.
//! * [`Scheduler::schedule`] answers a request with a
//!   [`ScheduleResult`] (also JSON-serializable — see [`ScheduleArtifact`]).
//! * [`Session`] owns the shared MAESTRO [`CostDatabase`]: every request
//!   scheduled in one session reuses the same memoized per-layer costs,
//!   so serving loops and bench sweeps stop rebuilding the cost cache on
//!   every call. Costs depend only on (chiplet class, layer, batch) —
//!   never on the scheduler — so one session can serve every scheduler
//!   and every strategy of an experiment.
//!
//! ```
//! use scar_core::baselines::{NnBaton, Standalone};
//! use scar_core::{Scar, ScheduleRequest, Scheduler, Session};
//! use scar_mcm::templates::{het_sides_3x3, Profile};
//! use scar_workloads::Scenario;
//!
//! let session = Session::new();
//! let request = ScheduleRequest::new(
//!     Scenario::datacenter(1),
//!     het_sides_3x3(Profile::Datacenter),
//! );
//! let schedulers: Vec<Box<dyn Scheduler>> = vec![
//!     Box::new(Scar::with_defaults()),
//!     Box::new(Standalone::new()),
//!     Box::new(NnBaton::new()),
//! ];
//! for s in &schedulers {
//!     let result = s.schedule(&session, &request).expect("feasible");
//!     println!("{:>10}: EDP {:.3} J*s", s.name(), result.total().edp());
//! }
//! ```

use crate::parallel::Parallelism;
use crate::problem::{OptMetric, ScheduleError, ScheduleInstance};
use crate::scar::ScheduleResult;
use crate::search::SearchBudget;
use scar_maestro::{CostDatabase, SnapshotError};
use scar_mcm::McmConfig;
use scar_telemetry::Telemetry;
use scar_workloads::{Model, Scenario};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// A scheduling session: the shared state every [`Scheduler`] call reuses.
///
/// Today that state is the memoized MAESTRO [`CostDatabase`]. Entries are
/// keyed by (chiplet class, layer, batch) only, so one session is valid
/// across schedulers, scenarios, MCMs, and metrics — a bench sweep or a
/// serving loop creates one `Session` up front and threads it through
/// every call instead of re-deriving identical layer costs per call.
///
/// `Session` is the only place a [`CostDatabase`] is constructed; nothing
/// else in the workspace calls `CostDatabase::new()` directly (the sole
/// exceptions live inside `scar-maestro` itself — the database's own unit
/// tests and its snapshot-restore constructor, which cannot see this
/// crate).
///
/// Sessions persist: [`Session::save_costs`] snapshots the memoized costs
/// to disk and [`Session::open`]/[`Session::load_costs`] restore them, so
/// a restarted process serves covered workloads at zero MAESTRO
/// evaluations ([`Session::cost_evaluations`]). Whoever opens a session
/// persists it — the serving loop itself does no file I/O.
#[derive(Debug, Default)]
pub struct Session {
    db: CostDatabase,
    telemetry: Telemetry,
}

impl Session {
    /// A fresh session with an empty cost database and no telemetry sink.
    pub fn new() -> Self {
        Self {
            db: CostDatabase::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink: every scheduler driven through this
    /// session emits spans (candidate generation, cost evaluation, …)
    /// into it. The default is [`Telemetry::disabled`] — a no-op handle
    /// with zero hot-path cost. Telemetry never influences scheduling
    /// decisions; it only observes them.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The session's telemetry sink (the disabled handle when none was
    /// attached).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The session's shared cost database.
    pub fn database(&self) -> &CostDatabase {
        &self.db
    }

    /// Number of memoized per-layer cost entries accumulated so far.
    pub fn cached_costs(&self) -> usize {
        self.db.len()
    }

    /// Number of MAESTRO cost-model evaluations this session has actually
    /// performed (cache misses + warm-up work). A session restored from a
    /// snapshot that covers its workload reports zero — the number every
    /// cold-start benchmark watches.
    pub fn cost_evaluations(&self) -> u64 {
        self.db.evaluations()
    }

    /// Pre-populates the cost database for `request` (every layer of the
    /// scenario on every chiplet class of the MCM, evaluated in parallel;
    /// already-memoized entries are skipped). Optional: lookups memoize
    /// lazily anyway.
    pub fn warm_up(&self, request: &ScheduleRequest) {
        self.db.warm_up(&request.scenario, request.mcm.chiplets());
    }

    /// A cheap load/feasibility probe: a lower bound on one `batch`-sized
    /// request's service latency for `model` on `mcm` — the sum over the
    /// model's layers of the best-chiplet latency at that batch, i.e. the
    /// latency of an ideal schedule with zero queueing, zero interference,
    /// and a free choice of chiplet per layer. Admission controllers use
    /// it to bound deadline feasibility; fleet dispatchers use it as the
    /// per-replica service estimate. Probed entries memoize into the
    /// session's shared database (and persist with it), so a warm-started
    /// process probes at zero MAESTRO evaluations.
    pub fn min_service_s(&self, mcm: &McmConfig, model: &Model, batch: u64) -> f64 {
        model
            .layers()
            .iter()
            .map(|layer| {
                mcm.chiplets()
                    .iter()
                    .map(|ch| self.db.get(ch, &layer.kind, batch).time_s)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// Evicts least-recently-used cost entries until at most `max_entries`
    /// remain (see [`CostDatabase::compact`]), returning how many were
    /// dropped. Long-lived sessions — serving loops, fleets multiplying
    /// store count — run this before [`Session::save_costs`] so snapshots
    /// stop growing without bound.
    pub fn compact_costs(&self, max_entries: usize) -> usize {
        self.db.compact(max_entries)
    }

    /// Persists every memoized per-layer cost to `path` in the versioned
    /// snapshot format (`scar_maestro::snapshot`): a later process calls
    /// [`Session::load_costs`] and skips MAESTRO evaluation entirely for
    /// the covered (chiplet class, layer, batch) space. Output bytes are
    /// deterministic in the database contents.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on filesystem failure.
    pub fn save_costs(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        self.db.save_snapshot(path)
    }

    /// Loads a cost snapshot written by [`Session::save_costs`] into this
    /// session's shared database, returning the number of entries that
    /// were new. Loaded entries count as zero
    /// [`cost_evaluations`](Session::cost_evaluations).
    ///
    /// # Errors
    ///
    /// Rejects the whole snapshot (nothing is absorbed) on I/O failure, a
    /// malformed file, a schema-version mismatch, or a cost-model
    /// fingerprint mismatch — see [`SnapshotError`].
    pub fn load_costs(&self, path: impl AsRef<std::path::Path>) -> Result<usize, SnapshotError> {
        self.db.load_snapshot_into(path)
    }

    /// Opens the session persisted at `path` — the warm-start
    /// constructor: a fresh session restored from the snapshot there, or
    /// an empty one when no file exists yet (the cold start whose
    /// [`Session::save_costs`] writes it).
    ///
    /// # Errors
    ///
    /// An existing path that does not hold a loadable snapshot is an
    /// error, never a cold start: the same rejections as
    /// [`Session::load_costs`] (I/O failure — a directory, say — a
    /// malformed file, a schema-version or cost-model mismatch). Serving
    /// on costs from a different model would silently change every
    /// schedule.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let session = Self::new();
        if path.exists() {
            session.load_costs(path)?;
        }
        Ok(session)
    }
}

/// Everything one scheduling call depends on: workload, hardware, target
/// metric, and search budget (seed + parallelism included).
///
/// Scheduler-*specific* structure — SCAR's window splits, packing and
/// provisioning rules, search driver — stays on the scheduler value
/// itself ([`crate::ScarBuilder`]); the request only carries what every
/// scheduler family interprets the same way.
///
/// Serializes to JSON (the [`OptMetric::Custom`] variant excepted:
/// closures have no serialized form and fail to deserialize).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScheduleRequest {
    /// The multi-model workload to schedule.
    pub scenario: Scenario,
    /// The chiplet package to schedule onto. An attached
    /// [`InterconnectSpec`](scar_mcm::InterconnectSpec) (the tiered
    /// communication fabric) rides along: it serializes with the config
    /// and changes every `Lat_com` the evaluator prices, so two requests
    /// differing only in fabric are genuinely different requests.
    pub mcm: McmConfig,
    /// The optimization metric (Definition 10; default EDP).
    pub metric: OptMetric,
    /// Search budgets, RNG seed, and evaluation parallelism.
    pub budget: SearchBudget,
    /// Telemetry knob: a free-form label attached to the spans this
    /// request's scheduling emits (e.g. the serving round's virtual
    /// timestamp), so timelines can be joined back to requests. Purely
    /// observational — never hashed into schedule fingerprints, never
    /// consulted by any scheduler.
    pub trace_tag: Option<String>,
}

impl ScheduleRequest {
    /// A request for `scenario` on `mcm` with the default metric (EDP) and
    /// the default [`SearchBudget`].
    pub fn new(scenario: Scenario, mcm: McmConfig) -> Self {
        Self {
            scenario,
            mcm,
            metric: OptMetric::Edp,
            budget: SearchBudget::default(),
            trace_tag: None,
        }
    }

    /// Sets the optimization metric.
    #[must_use]
    pub fn metric(mut self, metric: OptMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the search budget (enumeration caps, seed, parallelism).
    #[must_use]
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the RNG seed (shorthand for [`SearchBudget::seed`]; call after
    /// [`ScheduleRequest::budget`]).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.budget.seed = seed;
        self
    }

    /// Sets the evaluation worker-pool sizing (shorthand for
    /// [`SearchBudget::parallelism`]; call after
    /// [`ScheduleRequest::budget`]). Wall-clock only — results are
    /// bit-identical across settings.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.budget.parallelism = parallelism;
        self
    }

    /// Sets the telemetry trace tag (see [`ScheduleRequest::trace_tag`]).
    #[must_use]
    pub fn trace_tag(mut self, tag: impl Into<String>) -> Self {
        self.trace_tag = Some(tag.into());
        self
    }
}

/// Hand-written (instead of derived) so that a request recorded before
/// `trace_tag` existed keeps loading. The MCM validates itself and builds
/// its routes as it deserializes; the scenario is validated
/// ([`Scenario::validate`]) before it can reach a search.
impl Deserialize for ScheduleRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::expected("object", "ScheduleRequest", v))?;
        let mcm: McmConfig = serde::__field(obj, "mcm", "ScheduleRequest")?;
        // `trace_tag` postdates persisted requests: absent = None, so
        // artifacts recorded before the field existed keep loading
        let trace_tag = match obj.iter().find(|(k, _)| k == "trace_tag") {
            Some((_, v)) => Option::<String>::from_value(v)
                .map_err(|e| serde::DeError::msg(format!("ScheduleRequest.trace_tag: {e}")))?,
            None => None,
        };
        let scenario: Scenario = serde::__field(obj, "scenario", "ScheduleRequest")?;
        scenario
            .validate()
            .map_err(|e| serde::DeError::msg(format!("ScheduleRequest.scenario: {e}")))?;
        Ok(Self {
            scenario,
            mcm,
            metric: serde::__field(obj, "metric", "ScheduleRequest")?,
            budget: serde::__field(obj, "budget", "ScheduleRequest")?,
            trace_tag,
        })
    }
}

/// A scheduler of multi-model scenarios onto MCM packages.
///
/// Implemented by [`Scar`](crate::Scar) (the paper's system) and the
/// baseline schedulers [`Standalone`](crate::baselines::Standalone) and
/// [`NnBaton`](crate::baselines::NnBaton); serving loops and experiment
/// harnesses drive any of them through `Box<dyn Scheduler>` without
/// per-policy dispatch.
pub trait Scheduler {
    /// A short, stable name for reports and fingerprints (`"SCAR"`,
    /// `"Standalone"`, `"NN-baton"`, …).
    fn name(&self) -> &str;

    /// Schedules `request.scenario` onto `request.mcm`, reusing
    /// `session`'s shared cost database.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InsufficientChiplets`] when the scenario needs
    ///   more concurrent chiplets than the package has;
    /// * [`ScheduleError::NoFeasibleSchedule`] when the scheduler's search
    ///   finds no candidate under the request's budget.
    fn schedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
    ) -> Result<ScheduleResult, ScheduleError>;

    /// Whether [`Scheduler::reschedule`] can ever return `Some` — i.e.
    /// whether the scheduler has an incremental fast path worth seeding.
    /// Search-free schedulers keep the default `false`.
    fn supports_reschedule(&self) -> bool {
        false
    }

    /// Re-evaluates `seed` (a previous result's [`ScheduleInstance`])
    /// against the request instead of searching from scratch — the
    /// incremental-rescheduling fast path for serving loops whose
    /// consecutive requests differ only in batch sizes.
    ///
    /// Returns `None` when the scheduler has no incremental path or the
    /// seed does not fit the request; callers fall back to
    /// [`Scheduler::schedule`].
    fn reschedule(
        &self,
        _session: &Session,
        _request: &ScheduleRequest,
        _seed: &ScheduleInstance,
    ) -> Option<ScheduleResult> {
        None
    }

    /// Answers a *mid-window preemption*: a serving loop has cut an
    /// in-flight schedule at a window (layer) boundary, and
    /// `request.scenario` holds the spliced remainder — partially executed
    /// models resumed at their first unexecuted layer — plus whatever new
    /// tenants triggered the splice. `in_flight` is the schedule instance
    /// that was cut; a preemption-aware scheduler may mine it for
    /// placement hints (the remainder models ran *somewhere* a moment
    /// ago, and data residency favors keeping them there).
    ///
    /// The default implementation ignores the cut schedule and answers
    /// with a full [`Scheduler::schedule`] — always correct, never
    /// clairvoyant. Implementations must stay deterministic in
    /// `(request, in_flight)`: serving loops replay traffic and expect
    /// bit-identical reports.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scheduler::schedule`].
    fn preempt(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        in_flight: &ScheduleInstance,
    ) -> Result<ScheduleResult, ScheduleError> {
        let _ = in_flight;
        self.schedule(session, request)
    }

    /// Hashes everything of `in_flight` that [`Scheduler::preempt`] can
    /// actually read into `state` — the *preemption cache key* material
    /// beyond the request itself. Serving loops combine this with the
    /// request fingerprint to cache preempt results; two calls whose
    /// fingerprints collide MUST return identical results.
    ///
    /// The default hashes the entire cut instance (always sound: no two
    /// distinct in-flight schedules share a key). Schedulers that only
    /// consume a *projection* of the instance (say, per-model chiplet
    /// hints) should hash just that projection, so cuts that differ in
    /// irrelevant detail share one cached result.
    fn preempt_fingerprint(
        &self,
        request: &ScheduleRequest,
        in_flight: &ScheduleInstance,
        mut state: &mut dyn Hasher,
    ) {
        let _ = request;
        in_flight.hash(&mut state);
    }

    /// Hashes the scheduler's *configuration* (everything beyond the
    /// request that can change its output) into `state`. Schedule caches
    /// combine this with the request fingerprint; a configuration-free
    /// scheduler keeps the default no-op.
    fn fingerprint_config(&self, _state: &mut dyn Hasher) {}

    /// The scheduler's configuration as a serializable record, so
    /// artifacts can persist *how* the answering scheduler was built (not
    /// just its name) and replay can reconstruct the exact structural
    /// knobs. Configuration-free schedulers keep the default empty record.
    fn config(&self) -> SchedulerConfig {
        SchedulerConfig::default()
    }
}

/// A serializable record of a scheduler's structural configuration — the
/// knobs that live on the scheduler *value* rather than in the
/// [`ScheduleRequest`] (budgets, seed, and parallelism already travel in
/// the request). Recorded into every [`ScheduleArtifact`] so replay
/// rebuilds the scheduler the recording actually ran, instead of guessing
/// defaults from its registry name.
///
/// Fields are optional: a baseline records nothing, SCAR records its
/// window splits and search driver. Unknown-to-a-scheduler fields are
/// ignored on reconstruction.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// SCAR's window-split count (`nsplits`), when the scheduler has one.
    pub nsplits: Option<usize>,
    /// The per-window search driver, when the scheduler has one.
    pub search: Option<crate::search::SearchKind>,
}

/// One scheduling outcome as a self-describing JSON artifact: the request,
/// the scheduler that answered it (name *and* configuration), and the
/// result.
///
/// This is the single report path through which bench binaries and the
/// serving simulator persist schedules — artifacts written by one tool
/// load in another (or in a notebook) without re-running the search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleArtifact {
    /// Free-form label (strategy name, mix name, …).
    pub label: String,
    /// The [`Scheduler::name`] of the scheduler that produced the result.
    pub scheduler: String,
    /// The answering scheduler's structural configuration
    /// ([`Scheduler::config`]), so replay reconstructs the exact window
    /// splits / search driver instead of defaults. Empty for
    /// configuration-free schedulers.
    pub scheduler_config: SchedulerConfig,
    /// The request as issued.
    pub request: ScheduleRequest,
    /// The scheduling outcome.
    pub result: ScheduleResult,
}

impl ScheduleArtifact {
    /// Bundles a labeled request/result pair, recording the answering
    /// scheduler's name *and* configuration — what replay needs to
    /// reconstruct the exact scheduler.
    pub fn of(
        label: impl Into<String>,
        scheduler: &dyn Scheduler,
        request: ScheduleRequest,
        result: ScheduleResult,
    ) -> Self {
        Self {
            label: label.into(),
            scheduler: scheduler.name().to_string(),
            scheduler_config: scheduler.config(),
            request,
            result,
        }
    }

    /// Serializes the artifact to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::write_pretty(&self.to_value())
    }

    /// Deserializes an artifact from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a schema mismatch (including
    /// a request whose metric was [`OptMetric::Custom`]).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde::parse_value(text).map_err(|e| e.to_string())?;
        <Self as Deserialize>::from_value(&v).map_err(|e| e.to_string())
    }

    /// Writes a set of artifacts as one pretty-printed JSON array.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_all(path: impl AsRef<std::path::Path>, artifacts: &[Self]) -> std::io::Result<()> {
        std::fs::write(path, serde::write_pretty(&artifacts.to_value()))
    }

    /// Loads a JSON array of artifacts written by
    /// [`ScheduleArtifact::save_all`].
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure, malformed JSON, or a schema
    /// mismatch.
    pub fn load_all(path: impl AsRef<std::path::Path>) -> Result<Vec<Self>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let v = serde::parse_value(&text).map_err(|e| e.to_string())?;
        <Vec<Self> as Deserialize>::from_value(&v).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scar_mcm::templates::{het_sides_3x3, Profile};

    fn request() -> ScheduleRequest {
        ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter))
    }

    #[test]
    fn request_builders_compose() {
        let r = request()
            .metric(OptMetric::Latency)
            .seed(7)
            .parallelism(Parallelism::Serial);
        assert_eq!(r.metric, OptMetric::Latency);
        assert_eq!(r.budget.seed, 7);
        assert_eq!(r.budget.parallelism, Parallelism::Serial);
    }

    #[test]
    fn session_shares_one_database() {
        let session = Session::new();
        assert_eq!(session.cached_costs(), 0);
        session.warm_up(&request());
        let populated = session.cached_costs();
        assert!(populated > 0, "warm-up fills the shared database");
        // a second warm-up of the same request adds nothing new
        session.warm_up(&request());
        assert_eq!(session.cached_costs(), populated);
    }

    #[test]
    fn session_costs_persist_and_restore() {
        let warm = Session::new();
        warm.warm_up(&request());
        assert!(warm.cost_evaluations() > 0, "cold warm-up pays the model");
        let path = std::env::temp_dir().join("scar_core_session_snapshot.json");
        warm.save_costs(&path).unwrap();

        let restored = Session::open(&path).unwrap();
        assert_eq!(restored.cached_costs(), warm.cached_costs());
        restored.warm_up(&request());
        assert_eq!(
            restored.cost_evaluations(),
            0,
            "a covered warm-up must not evaluate MAESTRO"
        );
        std::fs::remove_file(&path).ok();

        // a second warm-up on the donor is also free (entries memoized)
        let evals = warm.cost_evaluations();
        warm.warm_up(&request());
        assert_eq!(warm.cost_evaluations(), evals);
    }

    /// A bad snapshot is a configuration error, typed: serving on costs
    /// from a different model would silently change every schedule. A
    /// missing file is the cold start.
    #[test]
    fn corrupt_cost_snapshot_is_a_configuration_error() {
        let dir = std::env::temp_dir();
        let corrupt = dir.join("scar_core_session_corrupt_costdb.json");
        std::fs::write(&corrupt, "{ definitely not a snapshot").unwrap();
        let err = Session::open(&corrupt).expect_err("a corrupt snapshot must be rejected");
        assert!(matches!(err, SnapshotError::Malformed(_)), "got {err:?}");
        std::fs::remove_file(&corrupt).ok();

        let err = Session::open(&dir).expect_err("a directory is not a snapshot");
        assert!(matches!(err, SnapshotError::Io(_)), "got {err:?}");

        let missing = dir.join("scar_core_session_missing_costdb.json");
        std::fs::remove_file(&missing).ok();
        let fresh = Session::open(&missing).expect("a missing snapshot is a cold start");
        assert_eq!(fresh.cached_costs(), 0);
        assert!(!missing.exists(), "opening never writes");
    }

    #[test]
    fn request_roundtrips_through_json() {
        let r = request().metric(OptMetric::ConstrainedEdp { max_latency_s: 0.5 });
        let json = serde::write_pretty(&r.to_value());
        let v = serde::parse_value(&json).expect("valid JSON");
        let back = ScheduleRequest::from_value(&v).expect("schema matches");
        assert_eq!(back, r);
    }

    #[test]
    fn request_roundtrips_an_attached_fabric() {
        let mcm = het_sides_3x3(Profile::Datacenter)
            .with_interconnect(Some(scar_mcm::InterconnectSpec::wireless()));
        let r = ScheduleRequest::new(Scenario::datacenter(1), mcm);
        let json = serde::write_compact(&r.to_value());
        let v = serde::parse_value(&json).expect("valid JSON");
        let back = ScheduleRequest::from_value(&v).expect("schema matches");
        assert_eq!(back, r);
        assert_eq!(
            back.mcm.interconnect().map(|s| s.label()),
            Some("wireless"),
            "the fabric must survive the artifact round-trip"
        );
    }

    #[test]
    fn custom_metric_does_not_roundtrip() {
        let r = request().metric(OptMetric::Custom(std::sync::Arc::new(|t| t.latency_s)));
        let json = serde::write_compact(&r.to_value());
        let v = serde::parse_value(&json).expect("valid JSON");
        assert!(
            ScheduleRequest::from_value(&v).is_err(),
            "closures have no serialized form"
        );
    }
}
