//! Budgeted exhaustive candidate *generation* (the paper's 3×3 search).
//!
//! [`BruteSource`] enumerates (allocation × segmentation-combo × placement)
//! candidates for one window and hands them to the shared evaluation
//! [`engine`](super::engine) one allocation-sized batch at a time. It never
//! evaluates anything itself: all RNG draws happen here, in a fixed order,
//! which is what lets the engine evaluate batches on any number of threads
//! without perturbing the stream.
//!
//! Budget shaping: segmentation combos are visited best-score-first; the
//! best combo receives the largest placement share and later combos rotate
//! through different regions of the placement list, so the candidate cloud
//! covers both decision dimensions even under tight caps. The per-window
//! candidate budget is divided across allocations *adaptively*: budget an
//! allocation could not consume (no feasible segmentations, or a sparse
//! placement space) is redistributed to the allocations after it instead of
//! being silently lost.
//!
//! Segmentation expansion and the placement walk are generation's two
//! large costs: at one search thread on a 2-vCPU host they take 15.1%
//! and 20.3% of an overload serving pass, and 14.3% and 4.5% of a
//! cache-affinity fleet pass, against 7.1% and 2.4% for building the
//! candidates (DESIGN.md §6 has the full split). Segmentation expansion
//! runs in *parallel* across allocations: each model's top-k list is a
//! pure function of its content-derived subproblem key (search seed,
//! layer range, node/cap budgets, fabric parameters — see
//! [`segmentation::subproblem_key`](crate::segmentation::subproblem_key)),
//! so `par_map_chunks` workers prepare allocations independently, identical
//! subproblems hit the scheduler-wide [`SegMemo`](crate::segmentation::SegMemo)
//! cache, and candidate ids are pre-computed from the allocation's PROV
//! index (`alloc_idx << 32 | n`), not from arrival order. The
//! ordered-stream contract of [`CandidateSource`] is untouched: batches
//! are still emitted one allocation at a time, in PROV order, with
//! strictly increasing ids.

use super::engine::{CandidateSource, WindowCandidate};
use super::SearchCtx;
use crate::parallel::par_map_chunks;
use crate::problem::{EvalTotals, Segment, TimeWindow, WindowSchedule};
use crate::segmentation::SegCandidate;
use crate::tree;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// Floor on the candidate share granted to any single allocation: even
/// under a tight global budget every allocation gets a few evaluations, so
/// the PROV alternatives are never starved outright.
const MIN_PER_ALLOC: usize = 8;

/// Cap on segmentation combos ranked per allocation.
const MAX_COMBOS: usize = 128;

/// One allocation's pre-expanded segmentation space, prepared on a
/// `par_map_chunks` worker: a pure function of `(search seed, window,
/// allocation contents)`.
struct PreparedAlloc {
    /// The allocation's index in the PROV list — the candidate-id
    /// namespace (`alloc_idx << 32 | n`).
    alloc_idx: usize,
    /// Per-model top-k segmentation lists (active-model order).
    seg_lists: Vec<Vec<SegCandidate>>,
    /// Segmentation combos (indices into `seg_lists`), best combined
    /// score first, capped at [`MAX_COMBOS`].
    combos: Vec<Vec<usize>>,
}

/// The brute-force candidate stream: one batch per allocation.
pub(super) struct BruteSource<'c, 'r> {
    ctx: &'c SearchCtx<'c>,
    window: &'c TimeWindow,
    rng: &'r mut StdRng,
    active: Vec<usize>,
    prefs: Vec<Vec<usize>>,
    /// Feasible allocations with their segmentation spaces pre-expanded
    /// (PROV order preserved); infeasible allocations are dropped here so
    /// the budget split only counts allocations that can consume it.
    prepared: Vec<PreparedAlloc>,
    next_prep: usize,
    /// Window-wide candidate budget still unspent.
    remaining: usize,
}

impl<'c, 'r> BruteSource<'c, 'r> {
    pub(super) fn new(
        ctx: &'c SearchCtx<'c>,
        window: &'c TimeWindow,
        allocations: &'c [Vec<usize>],
        rng: &'r mut StdRng,
    ) -> Self {
        let active = window.active_models();
        let prefs = affinity_prefs(ctx, window, &active);
        // Parallel generation: segmentation expansion per allocation is
        // independent given its content-derived seed, so it fans out over
        // the same worker pool evaluation uses. Workers never touch the
        // telemetry sink or the shared RNG (placement draws below stay on
        // the coordinating thread, in batch order).
        let idxs: Vec<usize> = (0..allocations.len()).collect();
        let prepared: Vec<PreparedAlloc> =
            par_map_chunks(&idxs, ctx.budget.parallelism.threads(), |is: &[usize]| {
                is.iter()
                    .map(|&i| prepare_alloc(ctx, window, i, &allocations[i]))
                    .collect()
            })
            .into_iter()
            .flatten()
            .collect();
        Self {
            ctx,
            window,
            rng,
            active,
            prefs,
            prepared,
            next_prep: 0,
            remaining: ctx.budget.max_candidates_per_window,
        }
    }

    /// Generates up to `budget` candidates under one prepared allocation
    /// (the old interleaved search loop, minus every evaluation and minus
    /// the segmentation expansion already done in [`prepare_alloc`]).
    fn generate_alloc(&mut self, pi: usize, budget: usize) -> Vec<WindowCandidate> {
        let num_models = self.ctx.scenario.models().len();
        let prep = &self.prepared[pi];
        let base_id = (prep.alloc_idx as u64) << 32;
        let seg_lists = &prep.seg_lists;
        let combos = &prep.combos;

        // placements depend only on segment counts: cache by signature
        let mut placement_cache: HashMap<Vec<usize>, tree::PlacementSet> = HashMap::new();
        let mut rotate = 0usize;
        let mut out: Vec<WindowCandidate> = Vec::new();

        for (rank, combo) in combos.iter().enumerate() {
            let seg_choice: Vec<&Vec<Segment>> = combo
                .iter()
                .zip(seg_lists)
                .map(|(&i, list)| &list[i].segments)
                .collect();
            let counts: Vec<usize> = seg_choice.iter().map(|s| s.len()).collect();
            let placements = placement_cache.entry(counts.clone()).or_insert_with(|| {
                // the placement-tree walk is the costly slice of candidate
                // generation; span it so phase breakdowns can split "walk
                // the tree" from the rest of search.generation (it nests
                // inside that span on the coordinating thread)
                let mut span = self.ctx.tel.span("search.placements");
                let placements = tree::placement_set(
                    self.ctx.mcm,
                    &counts,
                    &self.prefs,
                    self.ctx.budget.max_root_perms,
                    self.ctx.budget.max_paths_per_model,
                    self.ctx.budget.max_placements_per_window,
                    self.rng,
                );
                span.push_arg("placements", placements.len() as u64);
                placements
            });
            if placements.is_empty() {
                continue;
            }

            let remaining = budget.saturating_sub(out.len());
            if remaining == 0 {
                break;
            }
            // every combo gets at least the affinity-aligned placement
            // (index 0); the top combo gets a third of the budget and the
            // rest split the remainder evenly, rotating through the list
            let share = if rank == 0 {
                (remaining / 3).max(1)
            } else {
                (remaining / (combos.len() - rank)).max(1)
            }
            .min(placements.len());

            for j in 0..share {
                let pj = if j == 0 {
                    0
                } else {
                    (rotate + j) % placements.len()
                };
                let mut segments = vec![Vec::new(); num_models];
                let mut place = vec![Vec::new(); num_models];
                for (i, (&m, segs)) in self.active.iter().zip(&seg_choice).enumerate() {
                    segments[m] = (*segs).clone();
                    place[m] = placements.path(pj, i).to_vec();
                }
                out.push(WindowCandidate {
                    id: base_id + out.len() as u64,
                    schedule: WindowSchedule {
                        window: self.window.clone(),
                        segments,
                        placement: place,
                    },
                });
            }
            rotate = rotate.wrapping_add(share);
        }
        out
    }
}

impl CandidateSource for BruteSource<'_, '_> {
    fn next_batch(&mut self) -> Vec<WindowCandidate> {
        while self.remaining > 0 && self.next_prep < self.prepared.len() {
            let remaining_allocs = self.prepared.len() - self.next_prep;
            let pi = self.next_prep;
            self.next_prep += 1;
            // adaptive split: whatever earlier allocations left unspent is
            // shared evenly among the allocations still to come
            let share = (self.remaining / remaining_allocs).max(MIN_PER_ALLOC);
            let batch = self.generate_alloc(pi, share);
            self.remaining = self.remaining.saturating_sub(batch.len());
            if !batch.is_empty() {
                return batch;
            }
        }
        Vec::new()
    }
}

/// Expands one allocation's segmentation space: top-k lists for every
/// active model plus the ranked combo list. Runs on `par_map_chunks`
/// workers — each model's enumeration is a pure function of its
/// subproblem content through [`SearchCtx::seg_lists_keyed`], so neither
/// worker scheduling nor the fate of other allocations can perturb the
/// result (the budget-redistribution invariant), and recurring
/// subproblems hit the cross-search memo. `None` when any active model has no feasible
/// segmentation (the allocation consumes no budget).
fn prepare_alloc(
    ctx: &SearchCtx<'_>,
    window: &TimeWindow,
    alloc_idx: usize,
    alloc: &[usize],
) -> Option<PreparedAlloc> {
    let seg_lists = ctx.seg_lists_keyed(window, alloc)?;

    // all segmentation combos, best combined score first, capped
    let mut combos: Vec<(f64, Vec<usize>)> = Vec::new();
    let mut idx = vec![0usize; seg_lists.len()];
    'enumerate: loop {
        let score: f64 = idx
            .iter()
            .zip(&seg_lists)
            .map(|(&i, list)| list[i].score)
            .sum();
        combos.push((score, idx.clone()));
        let mut i = 0;
        loop {
            if i == idx.len() {
                break 'enumerate;
            }
            idx[i] += 1;
            if idx[i] < seg_lists[i].len() {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
        if combos.len() >= 4096 {
            break;
        }
    }
    combos.sort_by(|a, b| a.0.total_cmp(&b.0));
    combos.truncate(MAX_COMBOS);

    Some(PreparedAlloc {
        alloc_idx,
        seg_lists,
        combos: combos.into_iter().map(|(_, c)| c).collect(),
    })
}

/// Per-model chiplet preference orders: chiplets sorted by the model's
/// window-range cost — under the *search metric* — on the chiplet's
/// dataflow class, with ties broken toward the off-chip interfaces (the
/// heterogeneity-aware chiplet assignment of Figure 1). Under an EDP
/// search this sends, e.g., batched encoder GEMMs to Shidiannao chiplets
/// when the energy saving outweighs the utilization loss.
///
/// When the context carries warm-start hints (a preempted remainder's
/// surviving chiplets), those chiplets are promoted to the front of the
/// model's order: placement index 0 is the affinity-aligned path every
/// combo tries first, so the surviving placement is always explored.
fn affinity_prefs(ctx: &SearchCtx<'_>, window: &TimeWindow, active: &[usize]) -> Vec<Vec<usize>> {
    let classes = ctx.mcm.chiplet_classes();
    active
        .iter()
        .map(|&m| {
            let sm = &ctx.scenario.models()[m];
            // window-range metric score per dataflow class
            let class_cost: Vec<(scar_maestro::Dataflow, f64)> = classes
                .iter()
                .map(|cl| {
                    let mut totals = EvalTotals::default();
                    for l in window.layers[m].clone() {
                        let c = ctx.db.get(cl, &sm.model.layers()[l].kind, sm.batch);
                        totals.latency_s += c.time_s;
                        totals.energy_j += c.energy_j;
                    }
                    (cl.dataflow, ctx.metric.score(&totals))
                })
                .collect();
            let cost_of = |df: scar_maestro::Dataflow| {
                class_cost
                    .iter()
                    .find(|(d, _)| *d == df)
                    .map(|(_, l)| *l)
                    .unwrap_or(f64::INFINITY)
            };
            let mut ids: Vec<usize> = (0..ctx.mcm.num_chiplets()).collect();
            ids.sort_by(|&a, &b| {
                let la = cost_of(ctx.mcm.chiplet(a).dataflow);
                let lb = cost_of(ctx.mcm.chiplet(b).dataflow);
                la.total_cmp(&lb)
                    .then_with(|| {
                        ctx.mcm
                            .nearest_interface(a)
                            .1
                            .cmp(&ctx.mcm.nearest_interface(b).1)
                    })
                    .then(a.cmp(&b))
            });
            if let Some(warm) = ctx.warm_prefs {
                let hints: Vec<usize> = warm
                    .get(m)
                    .map(|h| {
                        h.iter()
                            .copied()
                            .filter(|&c| c < ctx.mcm.num_chiplets())
                            .collect()
                    })
                    .unwrap_or_default();
                if !hints.is_empty() {
                    // hinted chiplets first (hint order), rest keep their
                    // affinity order
                    let mut promoted: Vec<usize> = Vec::with_capacity(ids.len());
                    for &c in hints.iter().chain(ids.iter()) {
                        if !promoted.contains(&c) {
                            promoted.push(c);
                        }
                    }
                    ids = promoted;
                }
            }
            ids
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected::ExpectedCosts;
    use crate::search::SearchBudget;
    use rand::SeedableRng;
    use scar_mcm::templates::{het_sides_3x3, Profile};
    use scar_workloads::Scenario;

    /// Drains the source, returning per-batch candidate counts.
    fn drain(source: &mut BruteSource<'_, '_>) -> Vec<usize> {
        let mut sizes = Vec::new();
        loop {
            let batch = source.next_batch();
            if batch.is_empty() {
                break;
            }
            sizes.push(batch.len());
        }
        sizes
    }

    #[test]
    fn infeasible_allocation_budget_is_redistributed() {
        // an allocation granting 0 nodes to an active model has no feasible
        // segmentation; its candidate share must flow to later allocations
        // instead of being silently lost
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let session = crate::Session::new();
        let db = session.database();
        let expected = ExpectedCosts::compute(&sc, &mcm, db);
        let metric = crate::problem::OptMetric::Edp;
        let budget = SearchBudget {
            max_candidates_per_window: 200,
            ..SearchBudget::default()
        };
        let ctx = SearchCtx {
            scenario: &sc,
            mcm: &mcm,
            db,
            expected: &expected,
            metric: &metric,
            budget: &budget,
            warm_prefs: None,
            seg_memo: None,
            tel: &scar_telemetry::Telemetry::disabled(),
        };
        let n0 = sc.models()[0].model.num_layers();
        let n1 = sc.models()[1].model.num_layers();
        let window = TimeWindow {
            index: 0,
            layers: vec![0..n0, 0..n1],
        };

        let infeasible = vec![0usize, 0]; // no nodes → no segmentations
        let feasible = vec![4usize, 4];

        let mut rng = StdRng::seed_from_u64(7);
        let allocations = vec![infeasible.clone(), feasible.clone()];
        let mut src = BruteSource::new(&ctx, &window, &allocations, &mut rng);
        let with_dead_alloc: usize = drain(&mut src).iter().sum();

        let mut rng = StdRng::seed_from_u64(7);
        let only_feasible = vec![feasible];
        let mut src = BruteSource::new(&ctx, &window, &only_feasible, &mut rng);
        let baseline: usize = drain(&mut src).iter().sum();

        // the dead allocation consumed nothing, so the feasible allocation
        // must receive the full window budget — same as being alone
        assert_eq!(
            with_dead_alloc, baseline,
            "unconsumed budget must be redistributed, not dropped"
        );
        assert!(baseline > budget.max_candidates_per_window / 2);
    }

    #[test]
    fn candidate_ids_increase_in_generation_order() {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let session = crate::Session::new();
        let db = session.database();
        let expected = ExpectedCosts::compute(&sc, &mcm, db);
        let metric = crate::problem::OptMetric::Edp;
        let budget = SearchBudget {
            max_candidates_per_window: 64,
            ..SearchBudget::default()
        };
        let ctx = SearchCtx {
            scenario: &sc,
            mcm: &mcm,
            db,
            expected: &expected,
            metric: &metric,
            budget: &budget,
            warm_prefs: None,
            seg_memo: None,
            tel: &scar_telemetry::Telemetry::disabled(),
        };
        let n0 = sc.models()[0].model.num_layers();
        let n1 = sc.models()[1].model.num_layers();
        let window = TimeWindow {
            index: 0,
            layers: vec![0..n0, 0..n1],
        };
        let allocations = vec![vec![4usize, 4], vec![5, 3]];
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = BruteSource::new(&ctx, &window, &allocations, &mut rng);
        let mut last: Option<u64> = None;
        loop {
            let batch = src.next_batch();
            if batch.is_empty() {
                break;
            }
            for c in &batch {
                assert!(last.map(|l| c.id > l).unwrap_or(c.id == 0));
                last = Some(c.id);
            }
        }
        assert!(last.is_some(), "source generated candidates");
    }
}
