//! The SCAR scheduling framework facade (Figure 4).

use crate::evaluate::{Evaluator, WindowEval};
use crate::expected::ExpectedCosts;
use crate::parallel::Parallelism;
use crate::problem::{EvalTotals, OptMetric, ScheduleError, ScheduleInstance, Segment};
use crate::provision::{self, ProvisionRule};
use crate::reconfig::{self, PackingRule};
use crate::scheduler::{ScheduleRequest, Scheduler, Session};
use crate::search::{self, SearchBudget, SearchCtx, SearchKind, WindowStep};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scar_maestro::CostDatabase;
use scar_mcm::{ChipletId, McmConfig};
use scar_workloads::Scenario;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// One candidate schedule's totals: a point for the Pareto figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidatePoint {
    /// End-to-end latency in seconds.
    pub latency_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
}

impl CandidatePoint {
    /// Energy-delay product in J·s.
    pub fn edp(&self) -> f64 {
        self.latency_s * self.energy_j
    }
}

/// A model's schedule within one window, for reporting (Figure 9 rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelWindowReport {
    /// Model name.
    pub model_name: String,
    /// Model index in the scenario.
    pub model: usize,
    /// The layer range executed in this window.
    pub layers: Range<usize>,
    /// `(segment, chiplet)` assignments in pipeline order.
    pub assignments: Vec<(Segment, ChipletId)>,
    /// The model's pipelined latency in this window, in seconds.
    pub latency_s: f64,
    /// Chosen mini-batch.
    pub mini_batch: u64,
}

/// Per-window report (drives Figure 9 and Table VI).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window position.
    pub index: usize,
    /// Window latency (max over models), seconds.
    pub latency_s: f64,
    /// Window energy (sum over models), joules.
    pub energy_j: f64,
    /// Reports for models active in this window.
    pub models: Vec<ModelWindowReport>,
}

/// The outcome of scheduling a scenario on an MCM.
///
/// Serializes to JSON (all fields included), so results round-trip as
/// artifacts — see [`crate::ScheduleArtifact`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleResult {
    strategy: String,
    schedule: ScheduleInstance,
    totals: EvalTotals,
    windows: Vec<WindowReport>,
    candidates: Vec<CandidatePoint>,
}

impl ScheduleResult {
    /// The MCM/strategy name this result was produced on.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// The winning schedule instance.
    pub fn schedule(&self) -> &ScheduleInstance {
        &self.schedule
    }

    /// End-to-end totals of the winning schedule.
    pub fn total(&self) -> EvalTotals {
        self.totals
    }

    /// Per-window breakdown of the winning schedule.
    pub fn windows(&self) -> &[WindowReport] {
        &self.windows
    }

    /// The latency of each time window, in execution order (the terms of
    /// `Lat(Sc) = Σ_w Lat(tw)`).
    ///
    /// This is the breakdown a serving loop needs to advance virtual time:
    /// window `w` ends at `window_latencies()[..=w].sum()` after the
    /// schedule starts executing.
    pub fn window_latencies(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.latency_s).collect()
    }

    /// Seconds from schedule start until model `model` has finished its
    /// last layer: the cumulative latency through the last window in which
    /// the model is active.
    ///
    /// Models finishing in an early window are *done* then — later windows
    /// run other tenants — so a serving simulator must complete their
    /// requests at this offset, not at the full schedule latency.
    ///
    /// Returns `None` if the model never executes (out of range or idle in
    /// every window).
    pub fn model_completion_s(&self, model: usize) -> Option<f64> {
        let last_active = self
            .windows
            .iter()
            .rposition(|w| w.models.iter().any(|m| m.model == model))?;
        Some(
            self.windows[..=last_active]
                .iter()
                .map(|w| w.latency_s)
                .sum(),
        )
    }

    /// Every candidate evaluated during the search, expressed as
    /// full-schedule totals (the best schedule with one window's candidate
    /// swapped in) — the paper's Pareto raw material.
    pub fn candidates(&self) -> &[CandidatePoint] {
        &self.candidates
    }

    /// The Pareto-optimal subset of [`ScheduleResult::candidates`] in the
    /// (latency, energy) plane, sorted by latency.
    pub fn pareto_front(&self) -> Vec<CandidatePoint> {
        pareto_front(&self.candidates)
    }

    /// Assembles a result from a schedule instance by evaluating it under
    /// `metric` (used by SCAR itself and by the baseline schedulers).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_instance(
        strategy: impl Into<String>,
        scenario: &Scenario,
        mcm: &McmConfig,
        db: &CostDatabase,
        metric: OptMetric,
        schedule: ScheduleInstance,
        candidates: Vec<CandidatePoint>,
        parallelism: Parallelism,
    ) -> Self {
        let evaluator = Evaluator::with_metric(scenario, mcm, db, metric);
        let (totals, evals) = evaluator.evaluate_schedule_par(&schedule, parallelism);
        let windows = build_reports(scenario, &schedule, &evals);
        Self {
            strategy: strategy.into(),
            schedule,
            totals,
            windows,
            candidates,
        }
    }
}

/// Extracts the Pareto-optimal (minimize latency, minimize energy) subset
/// of a candidate cloud, sorted by latency.
///
/// This is the one NaN-safe implementation every front extraction in the
/// workspace routes through ([`ScheduleResult::pareto_front`], the bench
/// crate's figure bins): `total_cmp` keeps the sort panic-free on a
/// NaN-polluted cloud (e.g. a degenerate cost model), NaN points sort
/// last and are filtered before they can enter the front.
pub fn pareto_front(points: &[CandidatePoint]) -> Vec<CandidatePoint> {
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| {
        a.latency_s
            .total_cmp(&b.latency_s)
            .then(a.energy_j.total_cmp(&b.energy_j))
    });
    let mut front: Vec<CandidatePoint> = Vec::new();
    let mut best_energy = f64::INFINITY;
    for p in pts {
        if p.latency_s.is_nan() || p.energy_j.is_nan() {
            continue;
        }
        if p.energy_j < best_energy {
            best_energy = p.energy_j;
            front.push(p);
        }
    }
    front
}

fn build_reports(
    scenario: &Scenario,
    schedule: &ScheduleInstance,
    evals: &[WindowEval],
) -> Vec<WindowReport> {
    schedule
        .windows
        .iter()
        .zip(evals)
        .map(|(ws, eval)| {
            let mut models = Vec::new();
            for (m, per) in eval.per_model.iter().enumerate() {
                let Some(per) = per else { continue };
                models.push(ModelWindowReport {
                    model_name: scenario.models()[m].model.name().to_string(),
                    model: m,
                    layers: ws.window.layers[m].clone(),
                    assignments: ws.segments[m]
                        .iter()
                        .copied()
                        .zip(ws.placement[m].iter().copied())
                        .collect(),
                    latency_s: per.latency_s,
                    mini_batch: per.mini_batch,
                });
            }
            WindowReport {
                index: ws.window.index,
                latency_s: eval.latency_s,
                energy_j: eval.energy_j,
                models,
            }
        })
        .collect()
}

/// Builder for [`Scar`]: the pipeline's structural knobs only. Everything
/// per-call (metric, budget, seed, parallelism) travels in the
/// [`ScheduleRequest`].
#[derive(Debug, Clone)]
pub struct ScarBuilder {
    name: String,
    nsplits: usize,
    packing: PackingRule,
    provisioning: ProvisionRule,
    search: SearchKind,
    splice_trim: bool,
}

impl Default for ScarBuilder {
    fn default() -> Self {
        Self {
            name: "SCAR".to_string(),
            nsplits: 4,
            packing: PackingRule::Greedy,
            provisioning: ProvisionRule::Uniform,
            search: SearchKind::BruteForce,
            splice_trim: false,
        }
    }
}

impl ScarBuilder {
    /// The report name ([`Scheduler::name`]; default `"SCAR"`). Named
    /// configurations — the zoo's `"Merged-Pipeline"` and
    /// `"SCAR-splice"` — set their own, so their cache entries and
    /// artifacts never alias SCAR's.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of time-window splits (§IV-A; default 4 → up to 5 windows).
    /// `0` fuses every model into one window: the Scope-style merged
    /// pipeline.
    pub fn nsplits(mut self, n: usize) -> Self {
        self.nsplits = n;
        self
    }

    /// The layer-packing rule (default: Algorithm 1 greedy).
    pub fn packing(mut self, rule: PackingRule) -> Self {
        self.packing = rule;
        self
    }

    /// The PROV node-distribution rule (default: Equation 2 uniform).
    pub fn provisioning(mut self, rule: ProvisionRule) -> Self {
        self.provisioning = rule;
        self
    }

    /// The per-window search driver (default: brute force).
    pub fn search(mut self, kind: SearchKind) -> Self {
        self.search = kind;
        self
    }

    /// Whether [`Scheduler::preempt`] first cuts the request's budget
    /// (default off): a quarter of the segmentation enumeration and half
    /// the placement and candidate caps, before the splice search trims
    /// further. Splice latency over splice breadth, for preemption-heavy
    /// serving. Cold scheduling is unaffected.
    pub fn splice_trim(mut self, on: bool) -> Self {
        self.splice_trim = on;
        self
    }

    /// Finalizes the scheduler.
    pub fn build(self) -> Scar {
        Scar {
            config: self,
            seg_memo: std::sync::Arc::default(),
        }
    }
}

/// The SCAR scheduler (Figure 4): MCM-Reconfig → PROV → SEG → SCHED with
/// cost-model feedback.
///
/// Construct via [`Scar::builder`] and drive through the [`Scheduler`]
/// trait with a [`Session`].
#[derive(Debug, Clone)]
pub struct Scar {
    config: ScarBuilder,
    /// Cross-search segmentation memo, shared by clones of this scheduler
    /// (observational: schedules are byte-identical with or without it).
    seg_memo: std::sync::Arc<crate::segmentation::SegMemo>,
}

impl Scar {
    /// Starts configuring a scheduler.
    pub fn builder() -> ScarBuilder {
        ScarBuilder::default()
    }

    /// A scheduler with all defaults (greedy packing, uniform PROV, brute
    /// force, nsplits = 4).
    pub fn with_defaults() -> Self {
        Self::builder().build()
    }

    /// The cold pipeline with `step` picking each window's winner: SCAR's
    /// scalar search, or a selection rule another scheduler plugs in.
    pub(crate) fn schedule_with(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        step: WindowStep,
    ) -> Result<ScheduleResult, ScheduleError> {
        let _g = session
            .telemetry()
            .span("schedule.run")
            .arg_opt("tag", request.trace_tag.as_deref());
        self.schedule_core(
            session,
            request,
            &request.budget,
            self.config.nsplits,
            None,
            step,
        )
    }

    /// The full pipeline. `budget` and `nsplits` are the request's budget
    /// and the configured splits on a cold call, trimmed ones on a
    /// splice; `warm_prefs` carries optional per-model placement hints
    /// mined from a preempted in-flight schedule (see
    /// [`Scheduler::preempt`]).
    fn schedule_core(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        budget: &SearchBudget,
        nsplits: usize,
        warm_prefs: Option<&[Vec<usize>]>,
        step: WindowStep,
    ) -> Result<ScheduleResult, ScheduleError> {
        let cfg = &self.config;
        let (scenario, mcm, metric) = (&request.scenario, &request.mcm, &request.metric);
        let db = session.database();
        let tel = session.telemetry();
        let expected = {
            // cost-model work: misses in `db` run MAESTRO here
            let _g = tel.span("schedule.costs");
            ExpectedCosts::compute(scenario, mcm, db)
        };
        let partition = {
            let _g = tel.span("schedule.partition").arg("nsplits", nsplits);
            reconfig::partition(scenario, &expected, nsplits, cfg.packing)
        };
        debug_assert!(partition.validate(scenario).is_ok());

        let max_active = partition
            .windows()
            .iter()
            .map(|w| w.active_models().len())
            .max()
            .unwrap_or(0);
        if max_active > mcm.num_chiplets() {
            return Err(ScheduleError::InsufficientChiplets {
                needed: max_active,
                available: mcm.num_chiplets(),
            });
        }

        // windows are scored independently: apportion an end-to-end latency
        // constraint equally across them (§VI's constrained EDP search)
        let window_metric = match metric {
            OptMetric::ConstrainedEdp { max_latency_s } => OptMetric::ConstrainedEdp {
                max_latency_s: max_latency_s / partition.len().max(1) as f64,
            },
            other => other.clone(),
        };
        let ctx = SearchCtx {
            scenario,
            mcm,
            db,
            expected: &expected,
            metric: &window_metric,
            budget,
            warm_prefs,
            seg_memo: Some(&self.seg_memo),
            tel,
        };

        let mut rng = StdRng::seed_from_u64(budget.seed);
        let mut window_schedules = Vec::with_capacity(partition.len());
        let mut window_evals: Vec<WindowEval> = Vec::with_capacity(partition.len());
        let mut per_window_candidates: Vec<Vec<EvalTotals>> = Vec::with_capacity(partition.len());

        for window in partition.windows() {
            let mut allocations = {
                let _g = tel.span("schedule.provision").arg("window", window.index);
                provision::allocations(
                    window,
                    scenario,
                    &expected,
                    metric,
                    mcm.num_chiplets(),
                    cfg.provisioning,
                    budget.node_constraint,
                )
            };
            if let Some(hints) = warm_prefs {
                // data residency: a preempted remainder keeps its prior
                // provisioning, so allocations that re-size a warm model
                // away from its surviving chiplet count only dilute the
                // search. Drop them — unless that would drop everything
                // (e.g. the remainder's count is infeasible alongside the
                // new tenants), in which case the full set stands.
                let pinned: Vec<(usize, usize)> = window
                    .active_models()
                    .into_iter()
                    .filter_map(|m| match hints.get(m) {
                        Some(h) if !h.is_empty() => Some((m, h.len())),
                        _ => None,
                    })
                    .collect();
                if !pinned.is_empty() {
                    let kept: Vec<Vec<usize>> = allocations
                        .iter()
                        .filter(|a| pinned.iter().all(|&(m, n)| a[m] == n))
                        .cloned()
                        .collect();
                    if !kept.is_empty() {
                        allocations = kept;
                    }
                }
            }
            if allocations.is_empty() {
                return Err(ScheduleError::InsufficientChiplets {
                    needed: window.active_models().len(),
                    available: mcm.num_chiplets(),
                });
            }
            let result = step(&ctx, window, &allocations, &cfg.search, &mut rng).ok_or(
                ScheduleError::NoFeasibleSchedule {
                    window: window.index,
                },
            )?;
            window_schedules.push(result.best);
            window_evals.push(result.eval);
            per_window_candidates.push(result.candidates);
        }

        let schedule = ScheduleInstance {
            windows: window_schedules,
        };
        schedule.validate(scenario, mcm.num_chiplets())?;

        // full-schedule candidate cloud: swap one window's candidate into
        // the otherwise-best schedule (latency and energy are additive
        // across windows)
        let best_totals: Vec<EvalTotals> = window_evals.iter().map(|e| e.totals()).collect();
        let total_best = best_totals
            .iter()
            .fold(EvalTotals::default(), |mut acc, t| {
                acc.accumulate(*t);
                acc
            });
        let mut candidates = Vec::new();
        for (w, cands) in per_window_candidates.iter().enumerate() {
            for c in cands {
                candidates.push(CandidatePoint {
                    latency_s: total_best.latency_s - best_totals[w].latency_s + c.latency_s,
                    energy_j: total_best.energy_j - best_totals[w].energy_j + c.energy_j,
                });
            }
        }

        let _g = tel.span("schedule.finalize");
        Ok(ScheduleResult::from_instance(
            mcm.name(),
            scenario,
            mcm,
            db,
            metric.clone(),
            schedule,
            candidates,
            budget.parallelism,
        ))
    }
}

impl Scheduler for Scar {
    fn name(&self) -> &str {
        &self.config.name
    }

    /// The full SCAR pipeline over the session's shared cost database,
    /// under the request's metric and budget; the builder supplies the
    /// structural knobs (`nsplits`, packing, provisioning, search driver).
    fn schedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.schedule_with(session, request, search::search_window)
    }

    /// Splice-aware preemption: instead of the trait default's full
    /// re-search, mine the cut `in_flight` instance for surviving
    /// placements — carried remainder models keep their prior chiplets as
    /// warm-start hints (data residency) — and run the pipeline under a
    /// *trimmed* budget whose search explores the neighborhood around the
    /// surviving placement plus the newly arrived tenants' deltas. The
    /// splice search also drops one reconfiguration split (`nsplits - 1`,
    /// floor 1): a mid-window cut rarely needs the full boundary count,
    /// and fewer windows shrink every downstream stage. A fused pipeline
    /// (`nsplits = 0`) stays one window. Falls back to the full
    /// [`Scheduler::schedule`] path when mining yields no hints or the
    /// seeded search finds nothing feasible, byte-identical to the trait
    /// default.
    ///
    /// With [`ScarBuilder::splice_trim`] on, the request's budget is cut
    /// before anything else, so the fallbacks run under the trimmed
    /// budget too.
    ///
    /// The *incumbent is always a candidate*: when the cut instance still
    /// validates against the request (the degenerate "nothing actually
    /// changed" splice), it is re-evaluated through the
    /// [`Scheduler::reschedule`] fast path and the better of
    /// {incumbent, trimmed search} wins under the request metric — the
    /// fast path can therefore never answer worse than the plan it
    /// replaces. Real mid-window splices rewrite the scenario (remainder
    /// layers, new tenants), so the incumbent check is a single failed
    /// `validate` there.
    ///
    /// Deterministic in `(request, in_flight)`: hint mining is a pure
    /// structural function of the two, the incumbent re-evaluation is
    /// search-free, and the trimmed search derives all randomness from
    /// the request's seed.
    fn preempt(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        in_flight: &ScheduleInstance,
    ) -> Result<ScheduleResult, ScheduleError> {
        let spliced;
        let request = if self.config.splice_trim {
            spliced = ScheduleRequest {
                budget: splice_budget(&request.budget),
                ..request.clone()
            };
            &spliced
        } else {
            request
        };
        let tel = session.telemetry();
        let hints = {
            let _g = tel
                .span("schedule.preempt")
                .arg_opt("tag", request.trace_tag.as_deref());
            mine_warm_hints(&request.scenario, in_flight)
        };
        if hints.iter().all(Vec::is_empty) {
            // nothing survived the cut (or the instance doesn't line up
            // with the request): the trait-default full search
            return self.schedule(session, request);
        }
        let nsplits = match self.config.nsplits {
            0 => 0,
            n => (n - 1).max(1),
        };
        let fast = {
            let _g = tel.span("schedule.preempt").arg(
                "warm_models",
                hints.iter().filter(|h| !h.is_empty()).count(),
            );
            self.schedule_core(
                session,
                request,
                &preempt_budget(&request.budget),
                nsplits,
                Some(&hints),
                search::search_window,
            )
        };
        // the incumbent is always a candidate: if the cut plan still
        // validates against the (possibly unchanged) request, the splice
        // must beat it to replace it
        let incumbent = self.reschedule(session, request, in_flight);
        match (fast, incumbent) {
            (Ok(f), Some(i)) => {
                let metric = &request.metric;
                if metric.score(&i.total()) < metric.score(&f.total()) {
                    Ok(i)
                } else {
                    Ok(f)
                }
            }
            (Ok(f), None) => Ok(f),
            (Err(_), Some(i)) => Ok(i),
            // infeasible under the trimmed neighborhood: full search
            (Err(_), None) => self.schedule(session, request),
        }
    }

    fn supports_reschedule(&self) -> bool {
        true
    }

    /// The incremental fast path: re-evaluates `seed` against the request
    /// as a *seeded candidate*, skipping the window search entirely. When
    /// consecutive live scenarios differ only in batch sizes, the previous
    /// segmentation and placement stay structurally valid — only the
    /// costs (and the evaluator's mini-batch choices) change — so one
    /// cost-model pass replaces a full search. `None` when the seed no
    /// longer validates against the request's scenario.
    fn reschedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        seed: &ScheduleInstance,
    ) -> Option<ScheduleResult> {
        let mcm = &request.mcm;
        seed.validate(&request.scenario, mcm.num_chiplets()).ok()?;
        let _g = session.telemetry().span("schedule.seeded");
        Some(ScheduleResult::from_instance(
            mcm.name(),
            &request.scenario,
            mcm,
            session.database(),
            request.metric.clone(),
            seed.clone(),
            Vec::new(),
            request.budget.parallelism,
        ))
    }

    /// SCAR's structural knobs, recorded into artifacts so replay rebuilds
    /// the exact scheduler (packing/provisioning rules stay at their
    /// defaults in every recorded configuration, and the splice trim is
    /// implied by the registry name; all are covered by
    /// [`Scheduler::fingerprint_config`]).
    fn config(&self) -> crate::SchedulerConfig {
        crate::SchedulerConfig {
            nsplits: Some(self.config.nsplits),
            search: Some(self.config.search.clone()),
        }
    }

    fn fingerprint_config(&self, mut state: &mut dyn Hasher) {
        // everything the request does not carry but the output depends on
        let cfg = &self.config;
        cfg.nsplits.hash(&mut state);
        cfg.packing.hash(&mut state);
        cfg.provisioning.hash(&mut state);
        match &cfg.search {
            SearchKind::BruteForce => 0u8.hash(&mut state),
            SearchKind::Evolutionary(p) => {
                1u8.hash(&mut state);
                p.population.hash(&mut state);
                p.generations.hash(&mut state);
                p.mutation_rate.to_bits().hash(&mut state);
            }
        }
        // only when on, so trim-free configurations keep their key bytes
        if cfg.splice_trim {
            cfg.splice_trim.hash(&mut state);
        }
    }
}

/// The bounded perturbation neighborhood for splice re-scheduling: the
/// request's budget with the placement-side caps trimmed. Warm hints pin
/// the surviving placement into the explored set, so the search only needs
/// enough head-room to cover newly arrived tenants and local perturbations
/// around it — not the full cold-start space.
fn preempt_budget(b: &SearchBudget) -> SearchBudget {
    SearchBudget {
        max_segmentations_enumerated: (b.max_segmentations_enumerated / 8).max(500),
        max_placements_per_window: (b.max_placements_per_window / 2).max(12),
        max_candidates_per_window: (b.max_candidates_per_window / 3).max(24),
        ..b.clone()
    }
}

/// The [`ScarBuilder::splice_trim`] cut, applied to the request before
/// [`preempt_budget`] trims further: a quarter of the segmentation
/// enumeration and half the placement/candidate caps, with the same
/// floors [`preempt_budget`] enforces so tiny budgets never degenerate to
/// an empty search.
fn splice_budget(b: &SearchBudget) -> SearchBudget {
    SearchBudget {
        max_segmentations_enumerated: (b.max_segmentations_enumerated / 4).max(500),
        max_placements_per_window: (b.max_placements_per_window / 2).max(12),
        max_candidates_per_window: (b.max_candidates_per_window / 2).max(24),
        ..b.clone()
    }
}

/// Mines a cut in-flight schedule for surviving placements: one chiplet
/// list per *request* model (empty = no hint).
///
/// The instance indexes models by the *old* scenario, the request by the
/// *new* one, and the trait deliberately keeps the entry scenario-shape
/// agnostic — so the correspondence is recovered structurally. A request
/// model needing `need` layers matches an unused old model `oj` whose
/// total layer count `T_oj` satisfies `T_oj - need == resume`, where
/// `resume` is `0` (never started) or a window boundary at which `oj`'s
/// execution resumed — exactly the shape of a boundary-cut remainder. The
/// hint is the ordered, deduplicated chiplet set serving `oj` at or after
/// `resume` (the chiplets whose L2 still holds that model's weights).
///
/// Pure in `(scenario, in_flight)`; malformed or mismatched instances
/// yield empty hints, which callers treat as "fall back to full search".
fn mine_warm_hints(scenario: &Scenario, in_flight: &ScheduleInstance) -> Vec<Vec<usize>> {
    let n_new = scenario.models().len();
    let mut hints = vec![Vec::new(); n_new];
    let Some(first) = in_flight.windows.first() else {
        return hints;
    };
    let n_old = first.window.layers.len();
    if in_flight
        .windows
        .iter()
        .any(|w| w.window.layers.len() != n_old || w.placement.len() != n_old)
    {
        return hints; // malformed instance: no hints, full fallback
    }
    let mut old_total = vec![0usize; n_old];
    for w in &in_flight.windows {
        for (m, r) in w.window.layers.iter().enumerate() {
            old_total[m] = old_total[m].max(r.end);
        }
    }
    let mut used = vec![false; n_old];
    for (ni, sm) in scenario.models().iter().enumerate() {
        let need = sm.model.num_layers();
        if need == 0 {
            continue;
        }
        for (oj, &total) in old_total.iter().enumerate() {
            if used[oj] || total < need {
                continue;
            }
            let resume = total - need;
            let at_boundary = resume == 0
                || in_flight.windows.iter().any(|w| {
                    let r = &w.window.layers[oj];
                    !r.is_empty() && r.start == resume
                });
            if !at_boundary {
                continue;
            }
            // chiplets serving oj at/after the cut, in first-use order
            let mut chiplets: Vec<usize> = Vec::new();
            for w in &in_flight.windows {
                let r = &w.window.layers[oj];
                if r.is_empty() || r.end <= resume {
                    continue;
                }
                for &c in &w.placement[oj] {
                    if !chiplets.contains(&c) {
                        chiplets.push(c);
                    }
                }
            }
            if chiplets.is_empty() {
                continue;
            }
            hints[ni] = chiplets;
            used[oj] = true;
            break;
        }
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use scar_maestro::Dataflow;
    use scar_mcm::templates::{het_sides_3x3, simba_3x3, Profile};

    fn quick_budget() -> SearchBudget {
        SearchBudget {
            max_root_perms: 12,
            max_paths_per_model: 6,
            max_placements_per_window: 200,
            max_candidates_per_window: 400,
            ..SearchBudget::default()
        }
    }

    fn run(scar: &Scar, sc: &Scenario, mcm: &McmConfig) -> Result<ScheduleResult, ScheduleError> {
        run_metric(scar, OptMetric::Edp, sc, mcm)
    }

    fn run_metric(
        scar: &Scar,
        metric: OptMetric,
        sc: &Scenario,
        mcm: &McmConfig,
    ) -> Result<ScheduleResult, ScheduleError> {
        let request = ScheduleRequest::new(sc.clone(), mcm.clone())
            .metric(metric)
            .budget(quick_budget());
        scar.schedule(&Session::new(), &request)
    }

    #[test]
    fn schedules_scenario_1_on_het_sides() {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let r = run(&Scar::with_defaults(), &sc, &mcm).unwrap();
        assert!(r.total().latency_s > 0.0);
        assert!(r.total().energy_j > 0.0);
        assert!(!r.windows().is_empty());
        assert!(!r.candidates().is_empty());
        r.schedule().validate(&sc, 9).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let scar = Scar::with_defaults();
        let a = run(&scar, &sc, &mcm).unwrap();
        let b = run(&scar, &sc, &mcm).unwrap();
        assert_eq!(a.total(), b.total());
        assert_eq!(a.schedule(), b.schedule());
    }

    #[test]
    fn chosen_schedule_minimizes_its_metric_over_candidates() {
        // the winner must be optimal within the candidate cloud it searched
        // (note: a latency search can legitimately lose to an EDP search on
        // latency — PROV allocations are metric-dependent, as in Table IV
        // where Simba (Shi) Sc2 has 0.99 s under latency search but 0.97 s
        // under EDP search)
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        for metric in [OptMetric::Latency, OptMetric::Energy, OptMetric::Edp] {
            let r = run_metric(&Scar::with_defaults(), metric.clone(), &sc, &mcm).unwrap();
            let best = metric.score(&r.total());
            for c in r.candidates() {
                let t = EvalTotals {
                    latency_s: c.latency_s,
                    energy_j: c.energy_j,
                };
                assert!(
                    best <= metric.score(&t) * 1.0000001,
                    "{}: best {best} beaten by candidate {}",
                    metric.label(),
                    metric.score(&t)
                );
            }
        }
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let sc = Scenario::datacenter(1);
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let r = run(&Scar::with_defaults(), &sc, &mcm).unwrap();
        let front = r.pareto_front();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[1].latency_s >= w[0].latency_s);
            assert!(w[1].energy_j <= w[0].energy_j);
        }
    }

    #[test]
    fn pareto_front_survives_nan_candidates() {
        // a degenerate candidate cloud (NaN totals from a hostile custom
        // metric or a broken cost model) must not panic the report path;
        // NaN points are excluded from the front
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let mut r = run(&Scar::with_defaults(), &sc, &mcm).unwrap();
        let finite_front = r.pareto_front();
        r.candidates.extend([
            CandidatePoint {
                latency_s: f64::NAN,
                energy_j: 0.0,
            },
            CandidatePoint {
                latency_s: 0.0,
                energy_j: f64::NAN,
            },
            CandidatePoint {
                latency_s: f64::NAN,
                energy_j: f64::NAN,
            },
        ]);
        let front = r.pareto_front();
        assert!(front
            .iter()
            .all(|p| p.latency_s.is_finite() && p.energy_j.is_finite()));
        assert_eq!(front, finite_front, "NaN points must not perturb the front");
    }

    fn p(latency_s: f64, energy_j: f64) -> CandidatePoint {
        CandidatePoint {
            latency_s,
            energy_j,
        }
    }

    #[test]
    fn all_nan_cloud_yields_empty_front() {
        // an all-NaN cloud yields an empty front, not a panic or NaN points
        assert!(pareto_front(&[p(f64::NAN, f64::NAN), p(f64::NAN, 0.0)]).is_empty());
    }

    #[test]
    fn infinities_order_without_panicking() {
        // infinities are orderable, so they are legal (if extreme) points:
        // an infinite-energy point never enters the front, an
        // infinite-latency point only if it strictly improves energy
        let f = pareto_front(&[p(1.0, f64::INFINITY), p(f64::INFINITY, 0.5), p(2.0, 1.0)]);
        assert_eq!(f, vec![p(2.0, 1.0), p(f64::INFINITY, 0.5)]);
    }

    #[test]
    fn dominated_duplicates_are_dropped() {
        let f = pareto_front(&[p(1.0, 1.0), p(1.0, 2.0), p(2.0, 2.0)]);
        assert_eq!(f, vec![p(1.0, 1.0)]);
    }

    #[test]
    fn splice_trim_keeps_cold_schedules_and_trims_preempts() {
        let session = Session::new();
        let request =
            ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter))
                .budget(quick_budget());
        let scar = Scar::builder().nsplits(1).build();
        let splice = Scar::builder().nsplits(1).splice_trim(true).build();
        let a = scar.schedule(&session, &request).unwrap();
        let b = splice.schedule(&session, &request).unwrap();
        assert_eq!(a, b, "cold path is unchanged");
        // the preempt path trims but still answers, and the incumbent
        // guard keeps it no worse than the cut plan under the metric
        let spliced = splice.preempt(&session, &request, a.schedule()).unwrap();
        let metric = &request.metric;
        assert!(metric.score(&spliced.total()) <= metric.score(&a.total()));
        // the budget transform is a pure trim with floors
        let trimmed = splice_budget(&request.budget);
        assert!(
            trimmed.max_segmentations_enumerated <= request.budget.max_segmentations_enumerated
        );
        assert!(trimmed.max_placements_per_window <= request.budget.max_placements_per_window);
        assert_eq!(trimmed.seed, request.budget.seed);
        let tiny = splice_budget(&SearchBudget {
            max_segmentations_enumerated: 1,
            max_placements_per_window: 1,
            max_candidates_per_window: 1,
            ..SearchBudget::default()
        });
        assert_eq!(tiny.max_segmentations_enumerated, 500);
        assert_eq!(tiny.max_placements_per_window, 12);
        assert_eq!(tiny.max_candidates_per_window, 24);
    }

    #[test]
    fn evolutionary_search_works() {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let scar = Scar::builder()
            .search(SearchKind::Evolutionary(crate::search::EvoParams::default()))
            .build();
        let r = run(&scar, &sc, &mcm).unwrap();
        assert!(r.total().latency_s > 0.0);
        r.schedule().validate(&sc, 9).unwrap();
    }

    #[test]
    fn too_small_mcm_errors() {
        let sc = Scenario::datacenter(5); // 6 models
        let chiplets = (0..4)
            .map(|_| scar_maestro::ChipletConfig::datacenter(Dataflow::NvdlaLike))
            .collect();
        let mcm = scar_mcm::McmConfig::new(
            "tiny",
            chiplets,
            scar_mcm::NopTopology::mesh(2, 2),
            vec![0, 1, 2, 3],
        );
        let err = run(&Scar::builder().nsplits(0).build(), &sc, &mcm).unwrap_err();
        assert!(matches!(err, ScheduleError::InsufficientChiplets { .. }));
    }

    #[test]
    fn window_latency_breakdown_sums_to_total() {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let r = run(&Scar::with_defaults(), &sc, &mcm).unwrap();
        let lats = r.window_latencies();
        assert_eq!(lats.len(), r.windows().len());
        let sum: f64 = lats.iter().sum();
        assert!((sum - r.total().latency_s).abs() < 1e-9 * r.total().latency_s.max(1.0));
        // every model finishes at or before the end of the schedule, and the
        // latest finisher defines the schedule's end
        let completions: Vec<f64> = (0..sc.models().len())
            .map(|m| r.model_completion_s(m).expect("both models execute"))
            .collect();
        for &c in &completions {
            assert!(c > 0.0 && c <= sum * (1.0 + 1e-12));
        }
        let latest = completions.iter().cloned().fold(0.0f64, f64::max);
        assert!((latest - sum).abs() < 1e-9 * sum.max(1.0));
        assert_eq!(r.model_completion_s(99), None);
    }

    #[test]
    fn window_reports_cover_all_layers() {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let r = run(&Scar::with_defaults(), &sc, &mcm).unwrap();
        let mut covered = vec![0usize; sc.models().len()];
        for w in r.windows() {
            for m in &w.models {
                covered[m.model] += m.layers.len();
            }
        }
        for (mi, sm) in sc.models().iter().enumerate() {
            assert_eq!(covered[mi], sm.model.num_layers());
        }
    }
}
