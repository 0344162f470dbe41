//! Search drivers over the per-window scheduling space.
//!
//! The paper adopts exhaustive brute force for the 3×3 experiments and an
//! evolutionary algorithm for the 6×6 system (§V-A, §V-D). Both drivers
//! share the per-model top-k segmentation lists of the SEG engine and the
//! scheduling-tree placement generator of the SCHED engine, and both
//! return every evaluated candidate (for the paper's Pareto figures).
//!
//! Drivers are pure candidate *generators* (`engine::CandidateSource`):
//! the shared `engine` evaluates their batches across a worker pool sized
//! by [`SearchBudget::parallelism`] and merges results in generation order,
//! so the chosen schedule is bit-identical for any thread count.

mod brute;
pub(crate) mod engine;
mod evolutionary;
pub mod nsga;

use crate::evaluate::{Evaluator, WindowEval};
use crate::expected::ExpectedCosts;
use crate::parallel::Parallelism;
use crate::problem::{EvalTotals, OptMetric, TimeWindow, WindowSchedule};
use crate::segmentation::{SegCandidate, SegMemo};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scar_maestro::CostDatabase;
use scar_mcm::McmConfig;
use scar_telemetry::Telemetry;
use scar_workloads::Scenario;

/// Enumeration budgets bounding the "brute-force" search (see DESIGN.md §5:
/// the paper's 3×3 exhaustive search is tractable only under pruning it
/// does not fully specify; these caps make the same decision dimensions
/// explicit and configurable).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchBudget {
    /// Segmentation candidates kept per model (Heuristic 1's top-k).
    pub top_k_segmentations: usize,
    /// Cap on segmentations enumerated per model before sampling kicks in.
    pub max_segmentations_enumerated: usize,
    /// Cap on scheduling-tree root permutations (trees per forest).
    pub max_root_perms: usize,
    /// Cap on DFS paths per subtree (per model).
    pub max_paths_per_model: usize,
    /// Cap on placements enumerated per window.
    pub max_placements_per_window: usize,
    /// Cap on fully evaluated candidates per window.
    pub max_candidates_per_window: usize,
    /// Heuristic 2: optional cap on nodes per model.
    pub node_constraint: Option<usize>,
    /// RNG seed: all sampling is deterministic given this seed.
    pub seed: u64,
    /// Worker-pool sizing for candidate evaluation. Affects wall-clock
    /// only — results are merged in generation order, so every setting
    /// yields the same schedule (and the knob is excluded from schedule
    /// cache fingerprints).
    pub parallelism: Parallelism,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            top_k_segmentations: 4,
            max_segmentations_enumerated: 20_000,
            max_root_perms: 48,
            max_paths_per_model: 16,
            max_placements_per_window: 1_500,
            max_candidates_per_window: 3_000,
            node_constraint: None,
            seed: seed_default(),
            parallelism: Parallelism::Auto,
        }
    }
}

/// Evolutionary-search hyperparameters (§V-A: population 10, 4 generations).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvoParams {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
}

impl Default for EvoParams {
    fn default() -> Self {
        Self {
            population: 10,
            generations: 4,
            mutation_rate: 0.3,
        }
    }
}

/// Which driver explores each window's space.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SearchKind {
    /// Budgeted exhaustive enumeration (the 3×3 experiments).
    BruteForce,
    /// Evolutionary algorithm (the 6×6 experiments).
    Evolutionary(EvoParams),
}

/// The outcome of searching one window.
#[derive(Debug, Clone)]
pub struct WindowSearchResult {
    /// The best window schedule found under the metric.
    pub best: WindowSchedule,
    /// Its evaluation.
    pub eval: WindowEval,
    /// Totals of every candidate evaluated (Pareto raw material).
    pub candidates: Vec<EvalTotals>,
}

/// Shared context threaded through the drivers.
pub(crate) struct SearchCtx<'a> {
    pub scenario: &'a Scenario,
    pub mcm: &'a McmConfig,
    pub db: &'a CostDatabase,
    pub expected: &'a ExpectedCosts,
    pub metric: &'a OptMetric,
    pub budget: &'a SearchBudget,
    /// Warm-start placement hints, scenario-indexed (one chiplet list per
    /// model): the chiplets a preempted remainder was already placed on.
    /// Drivers promote these to the front of their placement-preference
    /// orders so the surviving placement is always part of the explored
    /// neighborhood (data residency). `None` for cold searches.
    pub warm_prefs: Option<&'a [Vec<usize>]>,
    /// Cross-search segmentation memo (observational: populated or absent,
    /// candidate lists are byte-identical). `None` in one-shot contexts.
    pub seg_memo: Option<&'a SegMemo>,
    /// Observational only: generation/evaluation spans are recorded from
    /// the coordinating thread, never inside `par_map_chunks` workers, so
    /// the Serial-vs-`Fixed(N)` determinism contract is untouched.
    pub tel: &'a Telemetry,
}

impl<'a> SearchCtx<'a> {
    pub fn evaluator(&self) -> Evaluator<'a> {
        Evaluator::with_metric(self.scenario, self.mcm, self.db, self.metric.clone())
    }

    /// Per-model top-k segmentation lists for this window under an
    /// allocation (indexing follows `window.active_models()` order).
    pub fn seg_lists(
        &self,
        window: &TimeWindow,
        alloc: &[usize],
        rng: &mut StdRng,
    ) -> Option<Vec<Vec<SegCandidate>>> {
        let mut lists = Vec::new();
        for m in window.active_models() {
            let cands = crate::segmentation::top_k_for_model(
                self.scenario,
                self.mcm,
                self.expected,
                m,
                &window.layers[m],
                alloc[m],
                self.budget.top_k_segmentations,
                self.budget.max_segmentations_enumerated,
                rng,
            );
            if cands.is_empty() {
                return None;
            }
            lists.push(cands);
        }
        Some(lists)
    }

    /// Content-keyed variant of [`SearchCtx::seg_lists`]: each model's
    /// sampling RNG is seeded from its subproblem's *content key* (layer
    /// kinds in range, batch, node count, caps, NoP/chiplet parameters,
    /// plus the budget seed as stream identity), so the enumeration is a
    /// pure function of the subproblem. That buys two things at once:
    /// per-allocation expansion can run on `par_map_chunks` workers with
    /// no cross-allocation RNG coupling, and identical subproblems across
    /// windows, allocations, and *whole searches* can be answered from
    /// [`SegMemo`] without re-enumerating. The memo is observational —
    /// results are byte-identical with or without it.
    pub fn seg_lists_keyed(
        &self,
        window: &TimeWindow,
        alloc: &[usize],
    ) -> Option<Vec<Vec<SegCandidate>>> {
        let mut lists = Vec::new();
        for m in window.active_models() {
            let key = crate::segmentation::subproblem_key(
                self.scenario,
                self.mcm,
                m,
                &window.layers[m],
                alloc[m],
                self.budget.top_k_segmentations,
                self.budget.max_segmentations_enumerated,
                self.budget.seed,
            );
            if let Some(cands) = self.seg_memo.and_then(|memo| memo.get(key, m)) {
                if cands.is_empty() {
                    return None;
                }
                lists.push(cands);
                continue;
            }
            let mut rng = StdRng::seed_from_u64(key);
            let cands = crate::segmentation::top_k_for_model(
                self.scenario,
                self.mcm,
                self.expected,
                m,
                &window.layers[m],
                alloc[m],
                self.budget.top_k_segmentations,
                self.budget.max_segmentations_enumerated,
                &mut rng,
            );
            if let Some(memo) = self.seg_memo {
                memo.insert(key, &cands);
            }
            if cands.is_empty() {
                return None;
            }
            lists.push(cands);
        }
        Some(lists)
    }
}

/// One window's search step: explores the window's candidate space with
/// its search driver and picks the winner (`None` = no feasible
/// candidate). The SCAR pipeline takes its step as a parameter, so
/// selection rules plug into the one pipeline: [`search_window`] is
/// SCAR's scalar step, and [`crate::zoo::NsgaScar`] plugs in NSGA-II
/// selection.
pub(crate) type WindowStep = fn(
    &SearchCtx<'_>,
    &TimeWindow,
    &[Vec<usize>],
    &SearchKind,
    &mut StdRng,
) -> Option<WindowSearchResult>;

/// SCAR's scalar window step: the best candidate under the search metric
/// (the earliest generated on ties) plus every candidate's totals. Keeps
/// only the running best, never the candidate cloud itself.
pub(crate) fn search_window(
    ctx: &SearchCtx<'_>,
    window: &TimeWindow,
    allocations: &[Vec<usize>],
    kind: &SearchKind,
    rng: &mut StdRng,
) -> Option<WindowSearchResult> {
    let mut best: Option<engine::ScoredCandidate> = None;
    let mut candidates = Vec::new();
    drain_window(ctx, window, allocations, kind, rng, |c| {
        candidates.push(c.eval.totals());
        // strict `<` keeps the earliest-generated candidate on ties
        if best.as_ref().is_none_or(|b| c.score < b.score) {
            best = Some(c);
        }
    });
    best.map(|b| WindowSearchResult {
        best: b.schedule,
        eval: b.eval,
        candidates,
    })
}

/// Builds the search driver's candidate source for one window and drains
/// it through the parallel evaluation engine, handing every scored
/// candidate to `sink` in generation order.
pub(crate) fn drain_window(
    ctx: &SearchCtx<'_>,
    window: &TimeWindow,
    allocations: &[Vec<usize>],
    kind: &SearchKind,
    rng: &mut StdRng,
    sink: impl FnMut(engine::ScoredCandidate),
) {
    // source construction enumerates segmentation lists and seeds the
    // candidate space — generation work, attributed as such
    let span = || {
        ctx.tel
            .span("search.generation")
            .arg("window", window.index)
    };
    match kind {
        SearchKind::BruteForce => {
            let source = {
                let _g = span();
                brute::BruteSource::new(ctx, window, allocations, rng)
            };
            engine::drain(ctx, source, sink);
        }
        SearchKind::Evolutionary(p) => {
            let source = {
                let _g = span();
                evolutionary::EvoSource::new(ctx, window, allocations, *p, rng)
            };
            engine::drain(ctx, source, sink);
        }
    }
}

const fn seed_default() -> u64 {
    0x5CA7_2024
}

impl SearchBudget {
    /// The default seed used by [`SearchBudget::default`].
    pub const DEFAULT_SEED: u64 = seed_default();
}
