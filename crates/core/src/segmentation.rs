//! The SEG engine: layer segmentation within a time window (§IV-C).
//!
//! A segmentation candidate for a model is a sequence of splitting points
//! over its window layers; at most `N_i` segments may be produced (one per
//! provisioned node). The full per-model space is `C(L_i - 1, k - 1)` for
//! `k` segments; **Heuristic 1** evaluates models independently and keeps
//! only the top-k candidates per model, reducing the combinatorial space
//! from a product to a maximum.

use crate::expected::ExpectedCosts;
use crate::problem::Segment;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use scar_mcm::McmConfig;
use scar_workloads::{DataType, Scenario};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Range;

/// A scored per-model segmentation candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct SegCandidate {
    /// The segments, in execution order; they tile the window range.
    pub segments: Vec<Segment>,
    /// Placement-agnostic pipeline score (lower is better).
    pub score: f64,
}

/// Cross-search memo for [`top_k_for_model`] subproblems.
///
/// When the sampling RNG is seeded from the subproblem's content key
/// ([`subproblem_key`]), the enumeration becomes a pure function of that
/// key — and serving loops resolve the *same* subproblems round after
/// round (the same zoo models cut at the same partition boundaries), so
/// one enumeration can stand for all of them. Only the stored model
/// *index* is position-dependent; hits remap it to the caller's.
///
/// The memo is observational: a populated memo, an empty memo, and no
/// memo at all all yield byte-identical candidate lists. Unbounded, like
/// the MAESTRO cost cache — entries are tiny (top-k cut lists) and the
/// key space a serving session touches is small.
#[derive(Debug, Default)]
pub struct SegMemo {
    map: std::sync::Mutex<std::collections::HashMap<u64, Vec<SegCandidate>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl SegMemo {
    /// Looks up a subproblem, remapping stored segments onto `model`.
    pub fn get(&self, key: u64, model: usize) -> Option<Vec<SegCandidate>> {
        use std::sync::atomic::Ordering::Relaxed;
        let found = {
            let map = self.map.lock().expect("seg memo poisoned");
            map.get(&key).cloned()
        };
        match found {
            Some(mut cands) => {
                self.hits.fetch_add(1, Relaxed);
                for c in &mut cands {
                    for s in &mut c.segments {
                        s.model = model;
                    }
                }
                Some(cands)
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Stores a subproblem's candidate list.
    pub fn insert(&self, key: u64, cands: &[SegCandidate]) {
        let mut map = self.map.lock().expect("seg memo poisoned");
        map.entry(key).or_insert_with(|| cands.to_vec());
    }

    /// `(hits, misses)` so far — observability only.
    pub fn counters(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
    }
}

/// The content key of one [`top_k_for_model`] subproblem: everything the
/// enumeration and scoring read — the range-local layer kinds, the batch,
/// the NoP link parameters, the chiplet classes behind the expected
/// costs, the budget caps — plus `stream_seed`, the RNG-stream identity.
/// Seeding the sampling RNG from this key makes equal keys imply
/// byte-equal candidate lists (modulo the stored model index).
///
/// The key is std's `DefaultHasher` (SipHash), not the stable
/// `scar_hash::StableHasher`: std does not promise to keep the algorithm,
/// and it hashes `usize` in native byte order at native width. Every
/// schedule whose segmentation space is sampled, serving rounds included,
/// depends on these values. A unit test pins one of them; switching the
/// hasher moves every such schedule, pin and work count, and takes one
/// deliberate re-pin (DESIGN.md §8).
#[allow(clippy::too_many_arguments)]
pub fn subproblem_key(
    scenario: &Scenario,
    mcm: &McmConfig,
    model: usize,
    range: &Range<usize>,
    nodes: usize,
    top_k: usize,
    enum_cap: usize,
    stream_seed: u64,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    stream_seed.hash(&mut h);
    let sm = &scenario.models()[model];
    sm.batch.hash(&mut h);
    range.start.hash(&mut h);
    range.end.hash(&mut h);
    nodes.hash(&mut h);
    top_k.hash(&mut h);
    enum_cap.hash(&mut h);
    mcm.nop.bw_bytes_per_s.to_bits().hash(&mut h);
    mcm.nop.hop_latency_s.to_bits().hash(&mut h);
    for c in mcm.chiplets() {
        c.cache_key().hash(&mut h);
    }
    for l in &sm.model.layers()[range.clone()] {
        l.hash(&mut h);
    }
    h.finish()
}

/// Enumerates and scores segmentations of `range` for `model`, returning
/// the best `top_k` (Heuristic 1).
///
/// `nodes` bounds the segment count (`N_i` from PROV). When the exact
/// enumeration exceeds `enum_cap`, the space is sampled: balanced
/// (cost-quantile) cuts are always included, and the remainder is drawn
/// uniformly at random from the cut lattice using `rng` (deterministic for
/// a fixed seed).
///
/// The result holds the best candidate of *every* segment count
/// (1..=`nodes`), then the next-best distinct candidates overall, up to
/// `top_k − 1` extras, sorted by score (stable: generation order breaks
/// ties).
#[allow(clippy::too_many_arguments)]
pub fn top_k_for_model(
    scenario: &Scenario,
    mcm: &McmConfig,
    expected: &ExpectedCosts,
    model: usize,
    range: &Range<usize>,
    nodes: usize,
    top_k: usize,
    enum_cap: usize,
    rng: &mut StdRng,
) -> Vec<SegCandidate> {
    let len = range.len();
    if len == 0 || nodes == 0 {
        return Vec::new();
    }
    let max_k = nodes.min(len);
    let scorer = CutScorer::new(scenario, mcm, expected, model, range);

    let mut pool = CutPool::new();
    let mut budget = enum_cap.max(1);
    for k in 1..=max_k {
        let slots = len - 1; // candidate cut positions: after layer 1..len-1
        let picks = k - 1;
        let count = binomial(slots, picks);
        if count <= budget as u128 {
            enumerate_combinations(slots, picks, &mut |cuts| {
                pool.push(cuts, scorer.score(cuts));
            });
            budget = budget.saturating_sub(count as usize);
        } else {
            // sampled: balanced quantile cuts + uniform random draws
            let balanced = balanced_cuts(expected, model, range, k);
            pool.push(&balanced, scorer.score(&balanced));
            let draws = budget.clamp(1, 512);
            let mut seen = BTreeSet::new();
            let mut positions: Vec<usize> = (1..len).collect();
            let mut cut = Vec::with_capacity(picks);
            for _ in 0..draws * 4 {
                if seen.len() >= draws {
                    break;
                }
                positions.shuffle(rng);
                cut.clear();
                cut.extend_from_slice(&positions[..picks]);
                cut.sort_unstable();
                if !seen.contains(&cut) {
                    seen.insert(cut.clone());
                    pool.push(&cut, scorer.score(&cut));
                }
            }
            budget = budget.saturating_sub(draws);
        }
        if budget == 0 {
            break;
        }
    }

    // Keep segment-count diversity: the placement-agnostic score favors
    // deep pipelines, but on heterogeneous MCMs long chiplet paths are
    // forced through both dataflow classes — only the SCHED engine can see
    // which pipeline depth the package geometry supports. Return the best
    // candidate of *every* segment count (1..=max_k), then pad with the
    // next-best candidates overall up to `top_k` extras.
    let mut picked = pool.best_per_count(max_k);
    let cap = picked.len() + top_k.saturating_sub(1);
    pool.pad(&mut picked, cap);
    picked.sort_by(|&a, &b| pool.scores[a].total_cmp(&pool.scores[b]));
    picked
        .into_iter()
        .map(|i| SegCandidate {
            segments: cuts_to_segments(model, range, pool.cuts(i)),
            score: pool.scores[i],
        })
        .collect()
}

/// Every scored cut set of one [`top_k_for_model`] call, in generation
/// order: the cuts of all candidates in one flat arena, and one score per
/// candidate. A candidate is named by its generation index, which breaks
/// score ties exactly as a stable sort in generation order would.
struct CutPool {
    /// Concatenated cut positions; candidate `i` owns
    /// `cuts[bounds[i]..bounds[i + 1]]`.
    cuts: Vec<usize>,
    bounds: Vec<usize>,
    scores: Vec<f64>,
}

/// A candidate's place in score order: its score, then its generation
/// index (a total order, as generation indices are distinct).
fn by_score(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl CutPool {
    fn new() -> Self {
        Self {
            cuts: Vec::new(),
            bounds: vec![0],
            scores: Vec::new(),
        }
    }

    fn push(&mut self, cuts: &[usize], score: f64) {
        self.cuts.extend_from_slice(cuts);
        self.bounds.push(self.cuts.len());
        self.scores.push(score);
    }

    fn cuts(&self, i: usize) -> &[usize] {
        &self.cuts[self.bounds[i]..self.bounds[i + 1]]
    }

    /// The first candidate of each segment count in score order, by
    /// ascending count — one scan in generation order.
    fn best_per_count(&self, max_k: usize) -> Vec<usize> {
        let mut best: Vec<Option<usize>> = vec![None; max_k + 1];
        for (i, score) in self.scores.iter().enumerate() {
            let slot = &mut best[self.cuts(i).len() + 1];
            if slot.is_none_or(|b| score.total_cmp(&self.scores[b]).is_lt()) {
                *slot = Some(i);
            }
        }
        best.into_iter().flatten().collect()
    }

    /// Appends to `picked`, until it holds `cap` entries, the candidates
    /// in score order that are neither a repeat of the previous distinct
    /// cut set nor already picked (same cuts, equal score).
    ///
    /// Only a prefix of the score order is ever read, so it is selected
    /// (`select_nth_unstable`) and sorted alone; the whole list is sorted
    /// only if that prefix runs dry before `cap` is reached.
    fn pad(&self, picked: &mut Vec<usize>, cap: usize) {
        if picked.len() >= cap {
            return;
        }
        let mut keys: Vec<(f64, usize)> = self.scores.iter().copied().zip(0..).collect();
        // each picked entry can be skipped once; one more than that leaves
        // room for a repeat without falling back
        let prefix = (cap + 1).min(keys.len());
        if prefix < keys.len() {
            keys.select_nth_unstable_by(prefix - 1, by_score);
        }
        keys[..prefix].sort_unstable_by(by_score);
        let base = picked.len();
        if !self.pad_from(picked, cap, &keys[..prefix]) && prefix < keys.len() {
            picked.truncate(base);
            keys.sort_unstable_by(by_score);
            self.pad_from(picked, cap, &keys);
        }
    }

    /// Walks `sorted` for [`CutPool::pad`]; false when it ran out before
    /// `picked` reached `cap`.
    fn pad_from(&self, picked: &mut Vec<usize>, cap: usize, sorted: &[(f64, usize)]) -> bool {
        let mut last: Option<usize> = None;
        for &(_, i) in sorted {
            if picked.len() >= cap {
                return true;
            }
            if last.is_some_and(|r| self.cuts(r) == self.cuts(i)) {
                continue;
            }
            last = Some(i);
            let dup = picked
                .iter()
                .any(|&p| self.cuts(p) == self.cuts(i) && self.scores[p] == self.scores[i]);
            if !dup {
                picked.push(i);
            }
        }
        picked.len() >= cap
    }
}

/// Converts relative cut positions (1-based offsets into the range) to
/// segments tiling `range`.
fn cuts_to_segments(model: usize, range: &Range<usize>, cuts: &[usize]) -> Vec<Segment> {
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut start = range.start;
    for &c in cuts {
        let end = range.start + c;
        out.push(Segment::new(model, start, end));
        start = end;
    }
    out.push(Segment::new(model, start, range.end));
    out
}

/// The placement-agnostic score of a cut set: the inter-chiplet pipeline
/// latency of its segments under expected (Equation 1) per-layer costs at
/// batch 1, `Σ_k L_k + (b − 1)·max_k L_k`, plus the NoP cost of the
/// boundary activations. Balanced segmentations with small cut tensors win.
struct CutScorer<'a> {
    expected: &'a ExpectedCosts,
    model: usize,
    range: Range<usize>,
    batch: u64,
    /// NoP cost of the activation crossing a cut at each relative
    /// position (index 0 unused).
    boundary: Vec<f64>,
}

impl<'a> CutScorer<'a> {
    fn new(
        scenario: &Scenario,
        mcm: &McmConfig,
        expected: &'a ExpectedCosts,
        model: usize,
        range: &Range<usize>,
    ) -> Self {
        let layers = scenario.models()[model].model.layers();
        let boundary = (0..range.len())
            .map(|c| {
                if c == 0 {
                    return 0.0;
                }
                let bytes = layers[range.start + c - 1].output_bytes(DataType::Int8);
                bytes as f64 / mcm.nop.bw_bytes_per_s + mcm.nop.hop_latency_s
            })
            .collect();
        Self {
            expected,
            model,
            range: range.clone(),
            batch: scenario.models()[model].batch,
            boundary,
        }
    }

    fn score(&self, cuts: &[usize]) -> f64 {
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        let mut comm = 0.0f64;
        let mut start = self.range.start;
        for &c in cuts {
            let end = self.range.start + c;
            let l = self.expected.range_latency_b1(self.model, &(start..end));
            sum += l;
            max = max.max(l);
            comm += self.boundary[c];
            start = end;
        }
        let l = self
            .expected
            .range_latency_b1(self.model, &(start..self.range.end));
        sum += l;
        max = max.max(l);
        sum + (self.batch.saturating_sub(1)) as f64 * max + self.batch as f64 * comm
    }
}

/// Equal-expected-cost quantile cuts: the balanced segmentation heuristic
/// used to seed sampled spaces.
fn balanced_cuts(
    expected: &ExpectedCosts,
    model: usize,
    range: &Range<usize>,
    k: usize,
) -> Vec<usize> {
    let total = expected.range_latency_b1(model, range);
    let mut cuts = Vec::with_capacity(k - 1);
    let mut acc = 0.0;
    let mut next_quantile = 1;
    for li in range.clone() {
        acc += expected.range_latency_b1(model, &(li..li + 1));
        if next_quantile >= k {
            break;
        }
        if acc >= total * next_quantile as f64 / k as f64 {
            let cut = li + 1 - range.start;
            if cut >= 1 && cut < range.len() && cuts.last() != Some(&cut) {
                cuts.push(cut);
                next_quantile += 1;
            }
        }
    }
    cuts
}

/// `C(n, k)` with saturation (u128 to avoid overflow for the sizes the SEG
/// engine sees).
pub(crate) fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
    }
    acc
}

/// Calls `f` with every k-combination of `{1, …, n}` in lexicographic
/// order (combinations are cut positions, hence 1-based).
fn enumerate_combinations(n: usize, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == 0 {
        f(&[]);
        return;
    }
    let mut idx: Vec<usize> = (1..=k).collect();
    loop {
        f(&idx);
        // advance lexicographically
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] < n - (k - 1 - i) {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use scar_mcm::templates::{het_sides_3x3, Profile};

    fn setup() -> (Scenario, McmConfig, ExpectedCosts) {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let session = crate::Session::new();
        let db = session.database();
        let e = ExpectedCosts::compute(&sc, &mcm, db);
        (sc, mcm, e)
    }

    /// Sampled segmentations are seeded from this key, so a moved value
    /// moves every sampled schedule (see [`subproblem_key`]).
    #[test]
    fn subproblem_key_is_pinned() {
        let (sc, mcm, _) = setup();
        let key = subproblem_key(&sc, &mcm, 0, &(0..4), 2, 4, 64, 0);
        assert_eq!(
            key, 6_233_988_274_841_173_693,
            "subproblem_key moved: every schedule whose segmentation space is \
             sampled (serving rounds and PAPER_RESULTS.txt included) moved \
             with it and needs one deliberate re-pin"
        );
    }

    #[test]
    fn binomial_matches_pascal() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(119, 2), 7021);
    }

    #[test]
    fn combination_count_is_exact() {
        let mut count = 0usize;
        enumerate_combinations(6, 2, &mut |_| count += 1);
        assert_eq!(count as u128, binomial(6, 2));
        let mut count1 = 0usize;
        enumerate_combinations(9, 0, &mut |_| count1 += 1);
        assert_eq!(count1, 1);
    }

    #[test]
    fn candidates_tile_the_range() {
        let (sc, mcm, e) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let range = 5..25;
        let cands = top_k_for_model(&sc, &mcm, &e, 0, &range, 3, 8, 10_000, &mut rng);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.segments.len() <= 3);
            assert_eq!(c.segments[0].start, 5);
            assert_eq!(c.segments.last().unwrap().end, 25);
            for w in c.segments.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn scores_are_sorted_ascending() {
        let (sc, mcm, e) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let cands = top_k_for_model(&sc, &mcm, &e, 0, &(0..30), 3, 10, 10_000, &mut rng);
        for w in cands.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
    }

    #[test]
    fn single_node_yields_single_segment() {
        let (sc, mcm, e) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let cands = top_k_for_model(&sc, &mcm, &e, 0, &(0..40), 1, 4, 10_000, &mut rng);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].segments.len(), 1);
    }

    #[test]
    fn sampled_space_still_produces_valid_candidates() {
        let (sc, mcm, e) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        // C(119, 5) is astronomically large: forces sampling
        let cands = top_k_for_model(&sc, &mcm, &e, 0, &(0..120), 6, 6, 2_000, &mut rng);
        assert!(!cands.is_empty());
        for c in &cands {
            assert_eq!(c.segments[0].start, 0);
            assert_eq!(c.segments.last().unwrap().end, 120);
        }
    }

    #[test]
    fn balanced_segmentation_beats_degenerate_one() {
        // pipeline scoring must prefer even splits over a lopsided split
        let (sc, mcm, e) = setup();
        let model = 1; // BERT-L, batch 3
        let scorer = CutScorer::new(&sc, &mcm, &e, model, &(0..60));
        let sb = scorer.score(&[30]);
        let sl = scorer.score(&[1]);
        assert!(sb < sl, "balanced {sb} should beat lopsided {sl}");
    }

    #[test]
    fn cut_scores_match_the_segment_scores() {
        let (sc, mcm, e) = setup();
        let range = 7..52;
        let scorer = CutScorer::new(&sc, &mcm, &e, 1, &range);
        for cuts in [&[][..], &[1], &[44], &[3, 20, 21, 40]] {
            let segments = cuts_to_segments(1, &range, cuts);
            let old =
                reference::score_segmentation(&sc, &mcm, &e, 1, sc.models()[1].batch, &segments);
            assert_eq!(scorer.score(cuts).to_bits(), old.to_bits(), "cuts {cuts:?}");
        }
    }

    /// The streaming top-k against the original materialize-sort-dedup
    /// algorithm: seeded draws of model, range, node count, top-k and
    /// enumeration cap over every Table III scenario on every 3×3 mesh.
    /// Segments, score bits and the sampling RNG's position must agree.
    #[test]
    fn top_k_matches_the_materializing_reference() {
        use rand::Rng;
        use scar_mcm::templates::all_3x3;
        let session = crate::Session::new();
        let mut draw = StdRng::seed_from_u64(0x7E57);
        let mut cases = 0;
        for id in 1..=10 {
            let sc = Scenario::by_id(id);
            let profile = if id <= 5 {
                Profile::Datacenter
            } else {
                Profile::ArVr
            };
            for mcm in all_3x3(profile) {
                let e = ExpectedCosts::compute(&sc, &mcm, session.database());
                for _ in 0..24 {
                    let model = draw.gen_range(0..sc.models().len());
                    let n = sc.models()[model].model.num_layers();
                    let start = draw.gen_range(0..n);
                    let end = draw.gen_range(start..n + 1);
                    let nodes = draw.gen_range(0..10);
                    let top_k = draw.gen_range(0..7);
                    let cap = [1, 40, 500, 3_000, 20_000][draw.gen_range(0..5)];
                    let seed = draw.gen();
                    let mut rng_new = StdRng::seed_from_u64(seed);
                    let mut rng_old = StdRng::seed_from_u64(seed);
                    let range = start..end;
                    let new = top_k_for_model(
                        &sc,
                        &mcm,
                        &e,
                        model,
                        &range,
                        nodes,
                        top_k,
                        cap,
                        &mut rng_new,
                    );
                    let old = reference::top_k_for_model(
                        &sc,
                        &mcm,
                        &e,
                        model,
                        &range,
                        nodes,
                        top_k,
                        cap,
                        &mut rng_old,
                    );
                    let what = format!(
                        "Sc{id} {} m{model} {range:?} n{nodes} k{top_k} cap{cap}",
                        mcm.name()
                    );
                    assert_eq!(new.len(), old.len(), "{what}");
                    for (a, b) in new.iter().zip(&old) {
                        assert_eq!(a.segments, b.segments, "{what}");
                        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{what}");
                    }
                    assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "{what}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 960);
    }

    /// Padding with many repeats at the head of the score order runs the
    /// selected prefix dry and falls back to the full sort; the picks must
    /// still be the reference's.
    #[test]
    fn padding_past_repeated_heads_matches_the_reference() {
        let cands: Vec<(Vec<usize>, f64)> = vec![
            (vec![3], 1.0),
            (vec![3], 1.0),
            (vec![3], 1.0),
            (vec![], 2.0),
            (vec![3], 1.0),
            (vec![5], 1.0),
            (vec![2, 4], 0.5),
            (vec![2, 4], 0.5),
            (vec![2, 4], 0.5),
            (vec![1, 4], 0.5),
            (vec![4], 3.0),
            (vec![6], 0.75),
            (vec![2], f64::INFINITY),
            (vec![7], 1.0),
        ];
        for top_k in 0..=cands.len() + 1 {
            let mut pool = CutPool::new();
            for (cuts, score) in &cands {
                pool.push(cuts, *score);
            }
            let mut picked = pool.best_per_count(3);
            let cap = picked.len() + top_k.saturating_sub(1);
            pool.pad(&mut picked, cap);
            picked.sort_by(|&a, &b| pool.scores[a].total_cmp(&pool.scores[b]));
            let got: Vec<(Vec<usize>, f64)> = picked
                .iter()
                .map(|&i| (pool.cuts(i).to_vec(), pool.scores[i]))
                .collect();
            assert_eq!(got, reference::pick(cands.clone(), top_k), "top_k {top_k}");
        }
    }

    /// The original top-k, kept as the reference the streaming version
    /// must reproduce: materialize every candidate's segments, sort the
    /// whole list, dedup, then pick. Its comparators use `total_cmp`,
    /// which orders finite scores exactly as its original panicking
    /// comparator did.
    mod reference {
        use super::super::*;

        #[allow(clippy::too_many_arguments)]
        pub fn top_k_for_model(
            scenario: &Scenario,
            mcm: &McmConfig,
            expected: &ExpectedCosts,
            model: usize,
            range: &Range<usize>,
            nodes: usize,
            top_k: usize,
            enum_cap: usize,
            rng: &mut StdRng,
        ) -> Vec<SegCandidate> {
            let len = range.len();
            if len == 0 || nodes == 0 {
                return Vec::new();
            }
            let max_k = nodes.min(len);
            let batch = scenario.models()[model].batch;

            let mut candidates: Vec<Vec<usize>> = Vec::new();
            let mut budget = enum_cap.max(1);
            for k in 1..=max_k {
                let slots = len - 1;
                let picks = k - 1;
                let count = binomial(slots, picks);
                if count <= budget as u128 {
                    enumerate_combinations(slots, picks, &mut |cuts| {
                        candidates.push(cuts.to_vec());
                    });
                    budget = budget.saturating_sub(count as usize);
                } else {
                    candidates.push(balanced_cuts(expected, model, range, k));
                    let draws = budget.clamp(1, 512);
                    let mut seen = BTreeSet::new();
                    let mut positions: Vec<usize> = (1..len).collect();
                    for _ in 0..draws * 4 {
                        if seen.len() >= draws {
                            break;
                        }
                        positions.shuffle(rng);
                        let mut cut: Vec<usize> = positions[..picks].to_vec();
                        cut.sort_unstable();
                        if seen.insert(cut.clone()) {
                            candidates.push(cut);
                        }
                    }
                    budget = budget.saturating_sub(draws);
                }
                if budget == 0 {
                    break;
                }
            }

            let scored: Vec<SegCandidate> = candidates
                .into_iter()
                .map(|cuts| {
                    let segments = cuts_to_segments(model, range, &cuts);
                    let score =
                        score_segmentation(scenario, mcm, expected, model, batch, &segments);
                    SegCandidate { segments, score }
                })
                .collect();
            select(scored, top_k)
        }

        /// The original selection over scored candidates in generation
        /// order.
        fn select(mut scored: Vec<SegCandidate>, top_k: usize) -> Vec<SegCandidate> {
            scored.sort_by(|a, b| a.score.total_cmp(&b.score));
            scored.dedup_by(|a, b| a.segments == b.segments);
            let mut best_per_k: std::collections::BTreeMap<usize, SegCandidate> =
                std::collections::BTreeMap::new();
            for c in &scored {
                best_per_k
                    .entry(c.segments.len())
                    .or_insert_with(|| c.clone());
            }
            let mut picked: Vec<SegCandidate> = best_per_k.into_values().collect();
            let cap = picked.len() + top_k.saturating_sub(1);
            for c in scored {
                if picked.len() >= cap {
                    break;
                }
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
            picked.sort_by(|a, b| a.score.total_cmp(&b.score));
            picked
        }

        /// [`select`] over bare `(cuts, score)` pairs of a range `0..8`.
        pub fn pick(cands: Vec<(Vec<usize>, f64)>, top_k: usize) -> Vec<(Vec<usize>, f64)> {
            let range = 0..8;
            let scored = cands
                .into_iter()
                .map(|(cuts, score)| SegCandidate {
                    segments: cuts_to_segments(0, &range, &cuts),
                    score,
                })
                .collect();
            select(scored, top_k)
                .into_iter()
                .map(|c| {
                    let cuts = c.segments[1..].iter().map(|s| s.start).collect();
                    (cuts, c.score)
                })
                .collect()
        }

        pub fn score_segmentation(
            scenario: &Scenario,
            mcm: &McmConfig,
            expected: &ExpectedCosts,
            model: usize,
            batch: u64,
            segments: &[Segment],
        ) -> f64 {
            let layers = scenario.models()[model].model.layers();
            let mut sum = 0.0f64;
            let mut max = 0.0f64;
            let mut comm = 0.0f64;
            for (i, s) in segments.iter().enumerate() {
                let l = expected.range_latency_b1(model, &s.layer_range());
                sum += l;
                max = max.max(l);
                if i + 1 < segments.len() {
                    let boundary_bytes = layers[s.end - 1].output_bytes(DataType::Int8);
                    comm += boundary_bytes as f64 / mcm.nop.bw_bytes_per_s + mcm.nop.hop_latency_s;
                }
            }
            sum + (batch.saturating_sub(1)) as f64 * max + batch as f64 * comm
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (sc, mcm, e) = setup();
        let a = top_k_for_model(
            &sc,
            &mcm,
            &e,
            0,
            &(0..120),
            5,
            5,
            1_000,
            &mut StdRng::seed_from_u64(42),
        );
        let b = top_k_for_model(
            &sc,
            &mcm,
            &e,
            0,
            &(0..120),
            5,
            5,
            1_000,
            &mut StdRng::seed_from_u64(42),
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.segments, y.segments);
        }
    }

    #[test]
    fn empty_range_gives_no_candidates() {
        let (sc, mcm, e) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(top_k_for_model(&sc, &mcm, &e, 0, &(3..3), 2, 4, 100, &mut rng).is_empty());
    }
}
