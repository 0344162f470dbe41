//! Evolutionary per-window candidate generation (the paper's 6×6 scaling
//! driver, §V-D).
//!
//! A genome holds, per active model, three genes mirroring the Figure 5
//! schedule encoding: a segmentation choice (index into the SEG engine's
//! top-k list), a subtree-root selector, and a path-shape selector that
//! steers the constrained DFS. Decoding reconstructs a full window
//! schedule; infeasible genomes (no disjoint paths) score `+∞`.
//!
//! [`EvoSource`] is the feedback-driven [`CandidateSource`]: each
//! generation's decoded population is one batch, the shared engine scores
//! it (in parallel, merged in population order), and
//! [`CandidateSource::observe`] closes the selection loop — elitism,
//! tournament, crossover, mutation. All RNG draws stay on the generation
//! side, so the stream is independent of how evaluation is threaded.

use super::engine::{CandidateSource, WindowCandidate};
use super::{EvoParams, SearchCtx};
use crate::problem::{TimeWindow, WindowSchedule};
use crate::segmentation::SegCandidate;
use rand::rngs::StdRng;
use rand::Rng;
use scar_mcm::{ChipletId, McmConfig};

const GENES_PER_MODEL: usize = 3;

/// The evolutionary candidate stream: one batch per generation, advancing
/// through the allocation list (PROV's rule-based output first; extra
/// allocations extend the pool).
pub(super) struct EvoSource<'c, 'r> {
    ctx: &'c SearchCtx<'c>,
    window: &'c TimeWindow,
    allocations: &'c [Vec<usize>],
    params: EvoParams,
    rng: &'r mut StdRng,
    active: Vec<usize>,
    /// Top-k segmentation lists for the current allocation.
    seg_lists: Vec<Vec<SegCandidate>>,
    /// Current population; empty ⇒ the next allocation must be started.
    population: Vec<Vec<u64>>,
    /// Generation number within the current allocation (0-based; the run
    /// evaluates generations `0..=params.generations`).
    generation: usize,
    /// Genome index of each candidate in the batch last returned (decoding
    /// drops infeasible genomes, so the batch can be shorter than the
    /// population).
    pending: Vec<usize>,
    next_alloc: usize,
    next_id: u64,
}

impl<'c, 'r> EvoSource<'c, 'r> {
    pub(super) fn new(
        ctx: &'c SearchCtx<'c>,
        window: &'c TimeWindow,
        allocations: &'c [Vec<usize>],
        params: EvoParams,
        rng: &'r mut StdRng,
    ) -> Self {
        let active = window.active_models();
        Self {
            ctx,
            window,
            allocations,
            params,
            rng,
            active,
            seg_lists: Vec::new(),
            population: Vec::new(),
            generation: 0,
            pending: Vec::new(),
            next_alloc: 0,
            next_id: 0,
        }
    }

    /// Seeds the population for the next allocation with feasible
    /// segmentations; false when the allocation list is exhausted.
    fn start_next_alloc(&mut self) -> bool {
        let genome_len = self.active.len() * GENES_PER_MODEL;
        while self.next_alloc < self.allocations.len() {
            let alloc = &self.allocations[self.next_alloc];
            self.next_alloc += 1;
            if let Some(lists) = self.ctx.seg_lists(self.window, alloc, self.rng) {
                self.seg_lists = lists;
                self.population = (0..self.params.population)
                    .map(|_| (0..genome_len).map(|_| self.rng.gen()).collect())
                    .collect();
                self.generation = 0;
                return true;
            }
        }
        false
    }

    /// Advances the evolutionary state with the current generation's
    /// fitness: either breeds the next generation or, after the final one,
    /// retires the population so the next allocation can start.
    ///
    /// `scores` is parallel to `pending` (feasible genomes only);
    /// undecodable genomes score `+∞`.
    fn step(&mut self, scores: &[f64]) {
        let mut fitness = vec![f64::INFINITY; self.population.len()];
        for (&gi, &s) in self.pending.iter().zip(scores) {
            fitness[gi] = s;
        }
        self.pending.clear();

        if self.generation >= self.params.generations {
            // final generation evaluated: this allocation is done
            self.population.clear();
            return;
        }
        self.generation += 1;

        let mut scored: Vec<(f64, Vec<u64>)> = fitness
            .into_iter()
            .zip(std::mem::take(&mut self.population))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));

        // next generation: elitism + tournament + crossover + mutation
        let genome_len = self.active.len() * GENES_PER_MODEL;
        let mut next: Vec<Vec<u64>> = scored.iter().take(2).map(|(_, g)| g.clone()).collect();
        while next.len() < self.params.population {
            let a = tournament(&scored, self.rng);
            let b = tournament(&scored, self.rng);
            let cut = self.rng.gen_range(0..genome_len);
            let mut child: Vec<u64> = a[..cut].iter().chain(&b[cut..]).copied().collect();
            for gene in child.iter_mut() {
                if self.rng.gen::<f64>() < self.params.mutation_rate {
                    *gene = self.rng.gen();
                }
            }
            next.push(child);
        }
        self.population = next;
    }
}

impl CandidateSource for EvoSource<'_, '_> {
    fn next_batch(&mut self) -> Vec<WindowCandidate> {
        loop {
            if self.population.is_empty() && !self.start_next_alloc() {
                return Vec::new();
            }
            // decode the current generation in population order
            let mut batch = Vec::new();
            self.pending.clear();
            for (gi, genome) in self.population.iter().enumerate() {
                if let Some(ws) = decode(
                    self.ctx.mcm,
                    self.window,
                    &self.active,
                    &self.seg_lists,
                    genome,
                ) {
                    self.pending.push(gi);
                    batch.push(WindowCandidate {
                        id: self.next_id,
                        schedule: ws,
                    });
                    self.next_id += 1;
                }
            }
            if !batch.is_empty() {
                return batch;
            }
            // a wholly infeasible generation: no scores to wait for —
            // advance the EA directly (all genomes at +∞) and try again
            self.step(&[]);
        }
    }

    fn observe(&mut self, scores: &[f64]) {
        self.step(scores);
    }
}

fn tournament<'p>(scored: &'p [(f64, Vec<u64>)], rng: &mut StdRng) -> &'p [u64] {
    let a = rng.gen_range(0..scored.len());
    let b = rng.gen_range(0..scored.len());
    let winner = if scored[a].0 <= scored[b].0 { a } else { b };
    &scored[winner].1
}

/// Decodes a genome into a window schedule, or `None` when no disjoint
/// path assignment exists for the encoded roots/shapes.
fn decode(
    mcm: &McmConfig,
    window: &TimeWindow,
    active: &[usize],
    seg_lists: &[Vec<SegCandidate>],
    genome: &[u64],
) -> Option<WindowSchedule> {
    let num_models = window.layers.len();
    let mut segments = vec![Vec::new(); num_models];
    let mut placement = vec![Vec::new(); num_models];
    let mut used = vec![false; mcm.num_chiplets()];

    for (i, &m) in active.iter().enumerate() {
        let seg_gene = genome[i * GENES_PER_MODEL];
        let root_gene = genome[i * GENES_PER_MODEL + 1];
        let path_gene = genome[i * GENES_PER_MODEL + 2];

        let list = &seg_lists[i];
        let choice = &list[(seg_gene % list.len() as u64) as usize];
        let depth = choice.segments.len();

        let avail: Vec<ChipletId> = (0..mcm.num_chiplets()).filter(|&c| !used[c]).collect();
        if avail.is_empty() {
            return None;
        }
        let root = avail[(root_gene % avail.len() as u64) as usize];
        let path = guided_path(mcm, root, depth, &used, path_gene)?;
        for &c in &path {
            used[c] = true;
        }
        segments[m] = choice.segments.clone();
        placement[m] = path;
    }

    Some(WindowSchedule {
        window: window.clone(),
        segments,
        placement,
    })
}

/// Finds one simple path of `depth` nodes from `root` avoiding `used`,
/// exploring neighbors in a pseudo-random order keyed by `gene`
/// (deterministic; different genes walk different shapes). Backtracks, so
/// it fails only when no path exists at all.
fn guided_path(
    mcm: &McmConfig,
    root: ChipletId,
    depth: usize,
    used: &[bool],
    gene: u64,
) -> Option<Vec<ChipletId>> {
    if used[root] || depth == 0 {
        return None;
    }
    let mut path = vec![root];
    let mut on_path = vec![false; mcm.num_chiplets()];
    on_path[root] = true;
    if walk(mcm, depth, used, gene, &mut path, &mut on_path) {
        Some(path)
    } else {
        None
    }
}

fn walk(
    mcm: &McmConfig,
    depth: usize,
    used: &[bool],
    gene: u64,
    path: &mut Vec<ChipletId>,
    on_path: &mut Vec<bool>,
) -> bool {
    if path.len() == depth {
        return true;
    }
    let last = *path.last().unwrap();
    let mut neighbors: Vec<ChipletId> = mcm
        .topology()
        .neighbors(last)
        .iter()
        .copied()
        .filter(|&n| !used[n] && !on_path[n])
        .collect();
    neighbors.sort_by_key(|&n| mix(gene, path.len() as u64, n as u64));
    for n in neighbors {
        path.push(n);
        on_path[n] = true;
        if walk(mcm, depth, used, gene, path, on_path) {
            return true;
        }
        on_path[n] = false;
        path.pop();
    }
    false
}

/// SplitMix64-style mixing for deterministic pseudo-random orderings.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.rotate_left(43));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scar_mcm::templates::{het_sides_3x3, Profile};

    #[test]
    fn guided_path_has_requested_depth() {
        let m = het_sides_3x3(Profile::Datacenter);
        let used = vec![false; 9];
        for gene in 0..20u64 {
            let p = guided_path(&m, 4, 3, &used, gene).unwrap();
            assert_eq!(p.len(), 3);
            assert_eq!(p[0], 4);
            for w in p.windows(2) {
                assert!(m.topology().is_adjacent(w[0], w[1]));
            }
        }
    }

    #[test]
    fn guided_path_respects_used() {
        let m = het_sides_3x3(Profile::Datacenter);
        let mut used = vec![false; 9];
        used[1] = true;
        used[3] = true;
        assert!(guided_path(&m, 0, 2, &used, 7).is_none());
        assert!(guided_path(&m, 0, 1, &used, 7).is_some());
    }

    #[test]
    fn different_genes_explore_different_shapes() {
        let m = het_sides_3x3(Profile::Datacenter);
        let used = vec![false; 9];
        let shapes: std::collections::HashSet<Vec<usize>> = (0..32u64)
            .filter_map(|g| guided_path(&m, 4, 4, &used, g))
            .collect();
        assert!(shapes.len() > 3, "only {} shapes", shapes.len());
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }
}
