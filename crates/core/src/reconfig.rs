//! The MCM-Reconfig engine: time-window characterization and the greedy
//! layer-packing Algorithm 1 (§IV-A).

use crate::expected::ExpectedCosts;
use crate::problem::{TimeWindow, WindowPartition};
use scar_workloads::Scenario;

/// How layers are packed into time windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackingRule {
    /// The paper's first-fit greedy packing (Algorithm 1): layers fill
    /// periodic windows by expected latency; a layer that would cross a
    /// boundary is deferred to the next window.
    Greedy,
    /// The §V-E ablation baseline: distribute each model's layers uniformly
    /// (by count) across the windows.
    Uniform,
}

/// Partitions `scenario` into at most `nsplits + 1` time windows.
///
/// `nsplits` is the paper's hyperparameter (default 4 → 5 windows): the
/// time horizon — the worst-case expected latency of any single model — is
/// divided into `nsplits + 1` periodic intervals whose boundaries drive the
/// packing. Trivial (empty) windows are dropped, so the result may have
/// fewer windows.
///
/// # Panics
///
/// Panics if `expected` does not cover `scenario`'s models.
pub fn partition(
    scenario: &Scenario,
    expected: &ExpectedCosts,
    nsplits: usize,
    rule: PackingRule,
) -> WindowPartition {
    assert_eq!(
        expected.num_models(),
        scenario.models().len(),
        "expected costs must cover the scenario"
    );
    match rule {
        PackingRule::Greedy => greedy(scenario, expected, nsplits),
        PackingRule::Uniform => uniform(scenario, nsplits),
    }
}

/// Algorithm 1: per-model first-fit packing against shared periodic
/// boundaries.
fn greedy(scenario: &Scenario, expected: &ExpectedCosts, nsplits: usize) -> WindowPartition {
    let num_models = scenario.models().len();
    let nwin = nsplits + 1;
    // time horizon: worst-case expected single-model latency
    let horizon = (0..num_models)
        .map(|m| expected.model_latency(m))
        .fold(0.0f64, f64::max);
    // periodic boundary times rho[w] for the first `nsplits` windows; the
    // final window is unbounded (Slack = None)
    let rho: Vec<f64> = (0..nsplits)
        .map(|w| (w as f64 + 1.0) * horizon / nwin as f64)
        .collect();

    // per window, per model layer ranges
    let mut assignment: Vec<Vec<std::ops::Range<usize>>> = vec![vec![0..0; num_models]; nwin];

    let width = horizon / nwin as f64;
    for (mi, sm) in scenario.models().iter().enumerate() {
        let mut win_idx = 0usize;
        let mut used = 0.0f64; // cumulative expected time consumed
        let mut win_start_layer = 0usize;
        for li in 0..sm.model.num_layers() {
            let e = expected.layer_latency(mi, li);
            loop {
                let slack = if win_idx >= nsplits {
                    None // last window: unbounded
                } else {
                    Some(rho[win_idx] - used)
                };
                match slack {
                    None => {
                        used += e;
                        break;
                    }
                    Some(s) if e <= s => {
                        used += e;
                        break;
                    }
                    // a layer larger than a whole window can never fit a
                    // bounded slack: admit it at a window start instead of
                    // starving the rest of the model to the final window
                    Some(s) if e > width && s >= width => {
                        used += e;
                        break;
                    }
                    Some(_) => {
                        // close the current window for this model (an
                        // oversized admitted layer may already have pushed
                        // `used` past this boundary — don't rewind it)
                        assignment[win_idx][mi] = win_start_layer..li;
                        win_start_layer = li;
                        used = used.max(rho[win_idx]);
                        win_idx += 1;
                    }
                }
            }
        }
        assignment[win_idx][mi] = win_start_layer..sm.model.num_layers();
    }

    WindowPartition::new(
        assignment
            .into_iter()
            .enumerate()
            .map(|(index, layers)| TimeWindow { index, layers })
            .collect(),
    )
}

/// Uniform-count packing: window `w` gets each model's `w`-th equal slice.
fn uniform(scenario: &Scenario, nsplits: usize) -> WindowPartition {
    let nwin = nsplits + 1;
    let num_models = scenario.models().len();
    let mut windows = Vec::with_capacity(nwin);
    for w in 0..nwin {
        let mut layers = Vec::with_capacity(num_models);
        for sm in scenario.models() {
            let n = sm.model.num_layers();
            let start = (n * w) / nwin;
            let end = (n * (w + 1)) / nwin;
            layers.push(start..end);
        }
        windows.push(TimeWindow { index: w, layers });
    }
    WindowPartition::new(windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scar_mcm::templates::{het_sides_3x3, Profile};

    fn setup(n: usize) -> (Scenario, ExpectedCosts) {
        let sc = Scenario::datacenter(n);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let session = crate::Session::new();
        let db = session.database();
        let e = ExpectedCosts::compute(&sc, &mcm, db);
        (sc, e)
    }

    #[test]
    fn greedy_partition_is_valid() {
        for n in [1, 3, 4] {
            let (sc, e) = setup(n);
            for nsplits in 0..=5 {
                let p = partition(&sc, &e, nsplits, PackingRule::Greedy);
                p.validate(&sc).unwrap_or_else(|err| {
                    panic!("scenario {n}, nsplits {nsplits}: {err}");
                });
                assert!(p.len() <= nsplits + 1);
                assert!(!p.is_empty());
            }
        }
    }

    #[test]
    fn uniform_partition_is_valid() {
        let (sc, e) = setup(4);
        let p = partition(&sc, &e, 4, PackingRule::Uniform);
        p.validate(&sc).unwrap();
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn nsplits_zero_is_single_window() {
        let (sc, e) = setup(1);
        let p = partition(&sc, &e, 0, PackingRule::Greedy);
        assert_eq!(p.len(), 1);
        let w = &p.windows()[0];
        for (mi, sm) in sc.models().iter().enumerate() {
            assert_eq!(w.layers[mi], 0..sm.model.num_layers());
        }
    }

    #[test]
    fn greedy_defers_boundary_crossing_layers() {
        // with several windows, at least one model must be split, and every
        // split point is a clean layer boundary (validated by Theorem 2)
        let (sc, e) = setup(4);
        let p = partition(&sc, &e, 4, PackingRule::Greedy);
        assert!(p.len() >= 2, "heavy scenario should span multiple windows");
        // the longest model's layers appear in more than one window
        let longest = (0..sc.models().len())
            .max_by(|&a, &b| e.model_latency(a).total_cmp(&e.model_latency(b)))
            .unwrap();
        let windows_with_longest = p
            .windows()
            .iter()
            .filter(|w| !w.layers[longest].is_empty())
            .count();
        assert!(windows_with_longest >= 2);
    }

    #[test]
    fn small_models_finish_early_under_greedy() {
        // Sc4: ResNet-50 (b=32) is much lighter than GPT-L (b=8)+BERT-L
        // — Figure 9's observation: small workloads land in early windows.
        let (sc, e) = setup(4);
        let p = partition(&sc, &e, 4, PackingRule::Greedy);
        // find the model with the smallest expected latency
        let lightest = (0..sc.models().len())
            .min_by(|&a, &b| e.model_latency(a).total_cmp(&e.model_latency(b)))
            .unwrap();
        let last_active = p
            .windows()
            .iter()
            .rev()
            .find(|w| !w.layers[lightest].is_empty())
            .unwrap()
            .index;
        assert!(
            last_active < p.len() - 1 || p.len() == 1,
            "lightest model should not persist into the final window"
        );
    }

    #[test]
    fn uniform_counts_are_even() {
        let (sc, e) = setup(1);
        let p = partition(&sc, &e, 3, PackingRule::Uniform);
        for (mi, sm) in sc.models().iter().enumerate() {
            let n = sm.model.num_layers();
            for w in p.windows() {
                let len = w.layers[mi].len();
                assert!(len <= n.div_ceil(4) + 1);
            }
        }
    }
}
