//! The SCHED engine: scheduling trees mapping segments onto chiplets
//! (§IV-D, Figure 5).
//!
//! The search space is a *forest*: each tree is identified by a permutation
//! of subtree roots (a starting chiplet per model). Within a tree, a
//! model's candidate schedules are the depth-`N_i` paths of a constrained
//! DFS over the chiplet adjacency graph (consecutive segments land on
//! interposer-adjacent chiplets); nodes visited by earlier subtrees are
//! excluded (exclusive chiplet occupancy).
//!
//! Tree enumeration is *heterogeneity-aware* (the paper's "layer affinity
//! consideration", Figure 1): callers pass per-model chiplet preference
//! orders — typically sorted by the model's cost on each chiplet's dataflow
//! class — and the enumerator visits preference-aligned trees first, padding
//! with seeded random trees for diversity.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use scar_mcm::{ChipletId, McmConfig};

/// A placement for one window: for each active model (in order), the
/// chiplet path its segments map onto.
pub type Placement = Vec<Vec<ChipletId>>;

/// Builds the identity preference (chiplet id order) for `models` models —
/// the affinity-agnostic default.
pub fn identity_prefs(num_chiplets: usize, models: usize) -> Vec<Vec<ChipletId>> {
    vec![(0..num_chiplets).collect(); models]
}

/// Enumerates candidate placements for the active models of a window.
///
/// `seg_counts[i]` is the number of segments (path depth) of the `i`-th
/// active model; `prefs[i]` is that model's chiplet preference order (see
/// module docs). Budgets: at most `max_root_perms` trees (preference-
/// aligned first, then seeded random), at most `max_paths_per_model` DFS
/// paths per subtree, and at most `max_placements` results overall.
///
/// Every returned placement uses pairwise-disjoint chiplets, and every
/// path's consecutive chiplets are NoP-adjacent.
///
/// # Panics
///
/// Panics if `prefs.len() != seg_counts.len()`.
pub fn enumerate_placements(
    mcm: &McmConfig,
    seg_counts: &[usize],
    prefs: &[Vec<ChipletId>],
    max_root_perms: usize,
    max_paths_per_model: usize,
    max_placements: usize,
    rng: &mut StdRng,
) -> Vec<Placement> {
    let set = placement_set(
        mcm,
        seg_counts,
        prefs,
        max_root_perms,
        max_paths_per_model,
        max_placements,
        rng,
    );
    (0..set.len())
        .map(|j| {
            (0..seg_counts.len())
                .map(|i| set.path(j, i).to_vec())
                .collect()
        })
        .collect()
}

/// Placements stored flat: each is the concatenation of its models' paths
/// (one record of `Σ seg_counts` chiplets), in enumeration order.
#[derive(Debug, Default)]
pub(crate) struct PlacementSet {
    /// Model `i`'s path is `offsets[i]..offsets[i + 1]` within a record.
    offsets: Vec<usize>,
    chiplets: Vec<ChipletId>,
}

impl PlacementSet {
    fn stride(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Number of placements.
    pub(crate) fn len(&self) -> usize {
        self.chiplets.len().checked_div(self.stride()).unwrap_or(0)
    }

    /// True when no placement was found.
    pub(crate) fn is_empty(&self) -> bool {
        self.chiplets.is_empty()
    }

    /// Model `i`'s chiplet path in placement `j`.
    pub(crate) fn path(&self, j: usize, i: usize) -> &[ChipletId] {
        let base = j * self.stride();
        &self.chiplets[base + self.offsets[i]..base + self.offsets[i + 1]]
    }
}

/// [`enumerate_placements`] into a flat [`PlacementSet`]: the same
/// placements in the same order, drawing the same RNG values.
pub(crate) fn placement_set(
    mcm: &McmConfig,
    seg_counts: &[usize],
    prefs: &[Vec<ChipletId>],
    max_root_perms: usize,
    max_paths_per_model: usize,
    max_placements: usize,
    rng: &mut StdRng,
) -> PlacementSet {
    assert_eq!(
        prefs.len(),
        seg_counts.len(),
        "one preference list per model"
    );
    let c = mcm.num_chiplets();
    let m = seg_counts.len();
    let mut set = PlacementSet::default();
    if m == 0 || seg_counts.iter().sum::<usize>() > c || seg_counts.contains(&0) {
        return set;
    }
    set.offsets.push(0);
    for &n in seg_counts {
        set.offsets.push(set.stride() + n);
    }

    // rank[i][chiplet] = position of chiplet in model i's preference order
    let ranks: Vec<Vec<usize>> = prefs
        .iter()
        .map(|p| {
            let mut r = vec![usize::MAX; c];
            for (pos, &id) in p.iter().enumerate() {
                r[id] = pos;
            }
            r
        })
        .collect();

    let roots = root_tuples(c, m, prefs, max_root_perms, rng);
    let mut walk = PlacementWalk {
        walker: Walker::new(mcm),
        seg_counts,
        ranks: &ranks,
        max_paths_per_model,
        max_placements,
        found: 0,
        acc: Vec::with_capacity(set.stride()),
        model_paths: vec![Vec::new(); m],
        out: Vec::new(),
    };
    for tuple in roots {
        walk.assign(&tuple, 0);
        if walk.found >= max_placements {
            break;
        }
    }
    set.chiplets = walk.out;
    set
}

/// Root tuples: preference-lexicographic enumeration first (each model
/// tries its favourite available chiplets), then seeded random tuples for
/// the remaining budget.
fn root_tuples(
    c: usize,
    m: usize,
    prefs: &[Vec<ChipletId>],
    max_root_perms: usize,
    rng: &mut StdRng,
) -> Vec<Vec<ChipletId>> {
    let space: u128 = (0..m).map(|i| (c - i) as u128).product();
    let mut seen = std::collections::HashSet::new();
    let mut out: Vec<Vec<ChipletId>> = Vec::new();

    // preference-aligned enumeration (first half of the budget, or all of
    // the space if it is small)
    let aligned_budget = if space <= max_root_perms as u128 {
        max_root_perms
    } else {
        max_root_perms.div_ceil(2)
    };
    fn rec(
        prefs: &[Vec<ChipletId>],
        depth: usize,
        cur: &mut Vec<ChipletId>,
        out: &mut Vec<Vec<ChipletId>>,
        seen: &mut std::collections::HashSet<Vec<ChipletId>>,
        budget: usize,
    ) {
        if out.len() >= budget {
            return;
        }
        if depth == prefs.len() {
            if seen.insert(cur.clone()) {
                out.push(cur.clone());
            }
            return;
        }
        for &cand in &prefs[depth] {
            if cur.contains(&cand) {
                continue;
            }
            cur.push(cand);
            rec(prefs, depth + 1, cur, out, seen, budget);
            cur.pop();
            if out.len() >= budget {
                return;
            }
        }
    }
    let mut cur = Vec::with_capacity(m);
    rec(prefs, 0, &mut cur, &mut out, &mut seen, aligned_budget);

    // random padding for diversity
    let mut ids: Vec<usize> = (0..c).collect();
    let mut attempts = 0;
    while out.len() < max_root_perms
        && (seen.len() as u128) < space
        && attempts < max_root_perms * 20
    {
        ids.shuffle(rng);
        let tuple: Vec<usize> = ids[..m].to_vec();
        if seen.insert(tuple.clone()) {
            out.push(tuple);
        }
        attempts += 1;
    }
    out
}

/// The placement walk of one [`placement_set`] call: for each root tuple,
/// model `i`'s candidate paths from its root (avoiding chiplets earlier
/// models took), then recursively the rest of the models under each path
/// — the "constrained on the preceding subtree's prior visited nodes"
/// traversal. Paths and placements go to flat buffers reused across trees.
struct PlacementWalk<'a> {
    walker: Walker<'a>,
    seg_counts: &'a [usize],
    ranks: &'a [Vec<usize>],
    max_paths_per_model: usize,
    max_placements: usize,
    /// Placements written to `out` so far.
    found: usize,
    /// The partial placement: the paths of models `0..i`, concatenated.
    acc: Vec<ChipletId>,
    /// Per model: its candidate paths under the current partial placement,
    /// concatenated (each `seg_counts[i]` long).
    model_paths: Vec<Vec<ChipletId>>,
    /// The placements found, concatenated.
    out: Vec<ChipletId>,
}

impl PlacementWalk<'_> {
    fn assign(&mut self, roots: &[ChipletId], model: usize) {
        if self.found >= self.max_placements {
            return;
        }
        if model == self.seg_counts.len() {
            self.out.extend_from_slice(&self.acc);
            self.found += 1;
            return;
        }
        let root = roots[model];
        if self.walker.used[root] {
            return;
        }
        let depth = self.seg_counts[model];
        let mut paths = std::mem::take(&mut self.model_paths[model]);
        paths.clear();
        self.walker.paths(
            root,
            depth,
            self.max_paths_per_model,
            Some(&self.ranks[model]),
            &mut paths,
        );
        for path in paths.chunks_exact(depth) {
            for &n in path {
                self.walker.used[n] = true;
            }
            self.acc.extend_from_slice(path);
            self.assign(roots, model + 1);
            self.acc.truncate(self.acc.len() - depth);
            for &n in path {
                self.walker.used[n] = false;
            }
            if self.found >= self.max_placements {
                break;
            }
        }
        self.model_paths[model] = paths;
    }
}

/// Collects up to `cap` simple paths of `depth` nodes starting at `root`,
/// avoiding `used` chiplets, following NoP adjacency (lowest-id-first).
pub fn dfs_paths(
    mcm: &McmConfig,
    root: ChipletId,
    depth: usize,
    used: &[bool],
    cap: usize,
) -> Vec<Vec<ChipletId>> {
    dfs_paths_ranked(mcm, root, depth, used, cap, None)
}

/// [`dfs_paths`] with an optional preference ranking steering neighbor
/// exploration order (lower rank = explored first).
pub fn dfs_paths_ranked(
    mcm: &McmConfig,
    root: ChipletId,
    depth: usize,
    used: &[bool],
    cap: usize,
    rank: Option<&[usize]>,
) -> Vec<Vec<ChipletId>> {
    let mut walker = Walker::new(mcm);
    for (w, &u) in walker.used.iter_mut().zip(used) {
        *w = u;
    }
    let mut flat = Vec::new();
    walker.paths(root, depth, cap, rank, &mut flat);
    flat.chunks_exact(depth.max(1)).map(<[_]>::to_vec).collect()
}

/// The constrained DFS over the chiplet adjacency graph, with its masks,
/// current path and per-depth neighbour lists kept across calls so a walk
/// allocates nothing per node.
struct Walker<'a> {
    mcm: &'a McmConfig,
    /// Chiplets taken by other models' paths.
    used: Vec<bool>,
    on_path: Vec<bool>,
    path: Vec<ChipletId>,
    /// `neighbors[d]`: the unexplored neighbours of `path[d]`, in
    /// exploration order.
    neighbors: Vec<Vec<ChipletId>>,
}

impl<'a> Walker<'a> {
    fn new(mcm: &'a McmConfig) -> Self {
        let c = mcm.num_chiplets();
        Self {
            mcm,
            used: vec![false; c],
            on_path: vec![false; c],
            path: Vec::with_capacity(c),
            neighbors: vec![Vec::new(); c],
        }
    }

    /// Appends to `out`, concatenated, up to `cap` simple paths of `depth`
    /// nodes from `root` that avoid `used`, exploring neighbours in
    /// topology order, stably re-ordered by `rank` when given.
    fn paths(
        &mut self,
        root: ChipletId,
        depth: usize,
        cap: usize,
        rank: Option<&[usize]>,
        out: &mut Vec<ChipletId>,
    ) {
        if self.used[root] || depth == 0 {
            return;
        }
        self.path.push(root);
        self.on_path[root] = true;
        let mut found = 0;
        self.extend(depth, cap, rank, out, &mut found);
        self.on_path[root] = false;
        self.path.clear();
    }

    fn extend(
        &mut self,
        depth: usize,
        cap: usize,
        rank: Option<&[usize]>,
        out: &mut Vec<ChipletId>,
        found: &mut usize,
    ) {
        if *found >= cap {
            return;
        }
        if self.path.len() == depth {
            out.extend_from_slice(&self.path);
            *found += 1;
            return;
        }
        let level = self.path.len() - 1;
        let mut next = std::mem::take(&mut self.neighbors[level]);
        next.clear();
        next.extend(
            self.mcm
                .topology()
                .neighbors(self.path[level])
                .iter()
                .copied()
                .filter(|&n| !self.used[n] && !self.on_path[n]),
        );
        if let Some(r) = rank {
            next.sort_by_key(|&n| r[n]);
        }
        for &n in &next {
            self.path.push(n);
            self.on_path[n] = true;
            self.extend(depth, cap, rank, out, found);
            self.on_path[n] = false;
            self.path.pop();
            if *found >= cap {
                break;
            }
        }
        self.neighbors[level] = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use scar_maestro::Dataflow;
    use scar_mcm::templates::{het_sides_3x3, simba_6x6, Profile};

    fn mcm() -> McmConfig {
        het_sides_3x3(Profile::Datacenter)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    fn id_prefs(m: usize) -> Vec<Vec<ChipletId>> {
        identity_prefs(9, m)
    }

    #[test]
    fn placements_are_disjoint_and_adjacent() {
        let m = mcm();
        let placements = enumerate_placements(&m, &[3, 2, 2], &id_prefs(3), 32, 8, 500, &mut rng());
        assert!(!placements.is_empty());
        for p in &placements {
            let mut seen = std::collections::HashSet::new();
            for path in p {
                for &c in path {
                    assert!(seen.insert(c), "chiplet {c} reused in {p:?}");
                }
                for w in path.windows(2) {
                    assert!(m.topology().is_adjacent(w[0], w[1]));
                }
            }
            assert_eq!(p[0].len(), 3);
            assert_eq!(p[1].len(), 2);
            assert_eq!(p[2].len(), 2);
        }
    }

    #[test]
    fn too_many_segments_is_infeasible() {
        let m = mcm();
        assert!(enumerate_placements(&m, &[5, 5], &id_prefs(2), 32, 8, 500, &mut rng()).is_empty());
        assert!(enumerate_placements(&m, &[0, 2], &id_prefs(2), 32, 8, 500, &mut rng()).is_empty());
        assert!(enumerate_placements(&m, &[], &id_prefs(0), 32, 8, 500, &mut rng()).is_empty());
    }

    #[test]
    fn single_model_single_segment_covers_all_roots() {
        let m = mcm();
        let placements = enumerate_placements(&m, &[1], &id_prefs(1), 100, 8, 1000, &mut rng());
        // 9 possible roots, each a 1-node path
        assert_eq!(placements.len(), 9);
    }

    #[test]
    fn preference_order_drives_first_placement() {
        let m = mcm();
        // model prefers the right NVDLA column: 2, 5, 8
        let prefs = vec![vec![2, 5, 8, 0, 3, 6, 1, 4, 7]];
        let placements = enumerate_placements(&m, &[3], &prefs, 16, 8, 100, &mut rng());
        assert_eq!(placements[0][0], vec![2, 5, 8]);
    }

    #[test]
    fn caps_are_respected() {
        let m = simba_6x6(Profile::Datacenter, Dataflow::NvdlaLike);
        let placements = enumerate_placements(
            &m,
            &[4, 4, 4],
            &identity_prefs(36, 3),
            16,
            4,
            200,
            &mut rng(),
        );
        assert!(placements.len() <= 200);
        assert!(!placements.is_empty());
    }

    #[test]
    fn dfs_paths_respect_used_mask() {
        let m = mcm();
        let mut used = vec![false; 9];
        used[1] = true;
        used[3] = true;
        // from corner 0, both neighbors blocked: no depth-2 path
        let paths = dfs_paths(&m, 0, 2, &used, 10);
        assert!(paths.is_empty());
        // depth-1 path still exists (the root itself)
        let paths1 = dfs_paths(&m, 0, 1, &used, 10);
        assert_eq!(paths1, vec![vec![0]]);
    }

    #[test]
    fn dfs_paths_are_simple() {
        let m = mcm();
        let used = vec![false; 9];
        for p in dfs_paths(&m, 4, 5, &used, 100) {
            let set: std::collections::HashSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len());
        }
    }

    #[test]
    fn ranked_dfs_prefers_low_rank_neighbors() {
        let m = mcm();
        let used = vec![false; 9];
        // make chiplet 3 maximally attractive from root 0
        let mut rank = vec![9usize; 9];
        rank[3] = 0;
        let paths = dfs_paths_ranked(&m, 0, 2, &used, 10, Some(&rank));
        assert_eq!(paths[0], vec![0, 3]);
    }

    #[test]
    fn root_sampling_is_deterministic() {
        let m = simba_6x6(Profile::Datacenter, Dataflow::ShidiannaoLike);
        let p = identity_prefs(36, 2);
        let a = enumerate_placements(&m, &[3, 3], &p, 8, 4, 100, &mut StdRng::seed_from_u64(5));
        let b = enumerate_placements(&m, &[3, 3], &p, 8, 4, 100, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn heterogeneous_paths_cross_dataflows() {
        // Het-Sides: a 3-deep horizontal path must mix NVD and Shi chiplets
        let m = mcm();
        let used = vec![false; 9];
        let paths = dfs_paths(&m, 0, 3, &used, 100);
        let crosses = paths.iter().any(|p| {
            let dfs: std::collections::HashSet<_> =
                p.iter().map(|&c| m.chiplet(c).dataflow).collect();
            dfs.len() == 2
        });
        assert!(crosses, "expected at least one heterogeneous path");
    }

    #[test]
    #[should_panic(expected = "one preference list per model")]
    fn pref_count_mismatch_panics() {
        let m = mcm();
        let _ = enumerate_placements(&m, &[1, 1], &id_prefs(1), 8, 4, 10, &mut rng());
    }

    /// The flat walk against the original recursive, allocating one:
    /// seeded draws of segment counts, preference orders and budgets on
    /// 3×3 and 6×6 meshes. Placements and the RNG position must agree.
    #[test]
    fn placements_match_the_recursive_reference() {
        use rand::Rng;
        let meshes = [
            mcm(),
            simba_6x6(Profile::Datacenter, Dataflow::NvdlaLike),
            scar_mcm::templates::het_cross_6x6(Profile::ArVr),
        ];
        let mut draw = StdRng::seed_from_u64(0x7EE);
        let mut cases = 0;
        for m in &meshes {
            let c = m.num_chiplets();
            for _ in 0..200 {
                let models = draw.gen_range(1..5);
                let seg_counts: Vec<usize> = (0..models).map(|_| draw.gen_range(0..6)).collect();
                let prefs: Vec<Vec<ChipletId>> = (0..models)
                    .map(|_| {
                        let mut p: Vec<ChipletId> = (0..c).collect();
                        p.shuffle(&mut draw);
                        p.truncate(draw.gen_range(1..c + 1));
                        p
                    })
                    .collect();
                let roots = draw.gen_range(1..64);
                let paths = draw.gen_range(1..24);
                let cap = draw.gen_range(1..2_000);
                let seed = draw.gen();
                let mut rng_new = StdRng::seed_from_u64(seed);
                let mut rng_old = StdRng::seed_from_u64(seed);
                let new =
                    enumerate_placements(m, &seg_counts, &prefs, roots, paths, cap, &mut rng_new);
                let old = reference::enumerate_placements(
                    m,
                    &seg_counts,
                    &prefs,
                    roots,
                    paths,
                    cap,
                    &mut rng_old,
                );
                assert_eq!(
                    new,
                    old,
                    "{} {seg_counts:?} {roots} {paths} {cap}",
                    m.name()
                );
                assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>());
                cases += 1;
            }
            for root in 0..c {
                let mut used = vec![false; c];
                for u in used.iter_mut() {
                    *u = draw.gen_range(0..4) == 0;
                }
                let rank: Vec<usize> = (0..c).map(|_| draw.gen_range(0..c)).collect();
                for depth in 0..6 {
                    assert_eq!(
                        dfs_paths_ranked(m, root, depth, &used, 16, Some(&rank)),
                        reference::dfs_paths_ranked(m, root, depth, &used, 16, Some(&rank)),
                    );
                    assert_eq!(
                        dfs_paths(m, root, depth, &used, 16),
                        reference::dfs_paths_ranked(m, root, depth, &used, 16, None),
                    );
                }
            }
        }
        assert_eq!(cases, 600);
    }

    /// The original placement walk, kept as the reference the flat walk
    /// must reproduce: a per-model recursion collecting each subtree's
    /// paths as owned vectors from a DFS that allocates per node.
    mod reference {
        use super::super::*;

        pub fn enumerate_placements(
            mcm: &McmConfig,
            seg_counts: &[usize],
            prefs: &[Vec<ChipletId>],
            max_root_perms: usize,
            max_paths_per_model: usize,
            max_placements: usize,
            rng: &mut StdRng,
        ) -> Vec<Placement> {
            let c = mcm.num_chiplets();
            let m = seg_counts.len();
            if m == 0 || seg_counts.iter().sum::<usize>() > c || seg_counts.contains(&0) {
                return Vec::new();
            }
            let ranks: Vec<Vec<usize>> = prefs
                .iter()
                .map(|p| {
                    let mut r = vec![usize::MAX; c];
                    for (pos, &id) in p.iter().enumerate() {
                        r[id] = pos;
                    }
                    r
                })
                .collect();
            let roots = root_tuples(c, m, prefs, max_root_perms, rng);
            let mut out = Vec::new();
            for tuple in roots {
                let mut used = vec![false; c];
                let mut acc: Placement = Vec::with_capacity(m);
                let budgets = (max_paths_per_model, max_placements);
                assign(
                    mcm, seg_counts, &ranks, &tuple, 0, &mut used, &mut acc, budgets, &mut out,
                );
                if out.len() >= max_placements {
                    break;
                }
            }
            out
        }

        #[allow(clippy::too_many_arguments)]
        fn assign(
            mcm: &McmConfig,
            seg_counts: &[usize],
            ranks: &[Vec<usize>],
            roots: &[ChipletId],
            model: usize,
            used: &mut Vec<bool>,
            acc: &mut Placement,
            (max_paths_per_model, max_placements): (usize, usize),
            out: &mut Vec<Placement>,
        ) {
            if out.len() >= max_placements {
                return;
            }
            if model == seg_counts.len() {
                out.push(acc.clone());
                return;
            }
            let root = roots[model];
            if used[root] {
                return;
            }
            let paths = dfs_paths_ranked(
                mcm,
                root,
                seg_counts[model],
                used,
                max_paths_per_model,
                Some(&ranks[model]),
            );
            for path in paths {
                for &n in &path {
                    used[n] = true;
                }
                acc.push(path.clone());
                let budgets = (max_paths_per_model, max_placements);
                assign(
                    mcm,
                    seg_counts,
                    ranks,
                    roots,
                    model + 1,
                    used,
                    acc,
                    budgets,
                    out,
                );
                acc.pop();
                for &n in &path {
                    used[n] = false;
                }
                if out.len() >= max_placements {
                    return;
                }
            }
        }

        pub fn dfs_paths_ranked(
            mcm: &McmConfig,
            root: ChipletId,
            depth: usize,
            used: &[bool],
            cap: usize,
            rank: Option<&[usize]>,
        ) -> Vec<Vec<ChipletId>> {
            let mut out = Vec::new();
            if used[root] || depth == 0 {
                return out;
            }
            let mut path = vec![root];
            let mut on_path = vec![false; mcm.num_chiplets()];
            on_path[root] = true;
            dfs(
                mcm,
                depth,
                used,
                cap,
                rank,
                &mut path,
                &mut on_path,
                &mut out,
            );
            out
        }

        #[allow(clippy::too_many_arguments)]
        fn dfs(
            mcm: &McmConfig,
            depth: usize,
            used: &[bool],
            cap: usize,
            rank: Option<&[usize]>,
            path: &mut Vec<ChipletId>,
            on_path: &mut Vec<bool>,
            out: &mut Vec<Vec<ChipletId>>,
        ) {
            if out.len() >= cap {
                return;
            }
            if path.len() == depth {
                out.push(path.clone());
                return;
            }
            let last = *path.last().unwrap();
            let mut neighbors: Vec<ChipletId> = mcm
                .topology()
                .neighbors(last)
                .iter()
                .copied()
                .filter(|&n| !used[n] && !on_path[n])
                .collect();
            if let Some(r) = rank {
                neighbors.sort_by_key(|&n| r[n]);
            }
            for next in neighbors {
                path.push(next);
                on_path[next] = true;
                dfs(mcm, depth, used, cap, rank, path, on_path, out);
                on_path[next] = false;
                path.pop();
                if out.len() >= cap {
                    return;
                }
            }
        }
    }
}
