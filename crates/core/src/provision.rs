//! The PROV engine: per-window chiplet-node provisioning (§IV-B).

use crate::expected::ExpectedCosts;
use crate::problem::{OptMetric, TimeWindow};
use scar_workloads::Scenario;

/// How PROV distributes nodes to a window's models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProvisionRule {
    /// The uniform-distribution rule of Equation (2):
    /// `N_i = round(E(P_i) / Σ_j E(P_j) · |C|)`, every active model ≥ 1.
    Uniform,
    /// Exhaustive enumeration of node distributions (the §V-E PROV
    /// ablation), capped at `max` distributions.
    Exhaustive {
        /// Maximum number of distributions to enumerate.
        max: usize,
    },
}

/// Computes candidate node allocations for one window.
///
/// Each allocation assigns `alloc[m]` chiplet nodes to model `m` (`0` for
/// models idle in the window). Invariants of every returned allocation:
///
/// * active models get at least one node,
/// * a model never gets more nodes than it has layers (extra nodes cannot
///   host a non-empty segment),
/// * `node_constraint` (Heuristic 2) caps any single model's nodes,
/// * the total never exceeds `num_chiplets`.
///
/// Returns an empty vector when the window has more active models than
/// chiplets (infeasible).
pub fn allocations(
    window: &TimeWindow,
    scenario: &Scenario,
    expected: &ExpectedCosts,
    metric: &OptMetric,
    num_chiplets: usize,
    rule: ProvisionRule,
    node_constraint: Option<usize>,
) -> Vec<Vec<usize>> {
    let active = window.active_models();
    if active.is_empty() || active.len() > num_chiplets {
        return Vec::new();
    }
    let cap_for = |m: usize| -> usize {
        let layers = window.layers[m].len();
        let c = node_constraint.unwrap_or(usize::MAX);
        layers.min(c).min(num_chiplets)
    };
    match rule {
        ProvisionRule::Uniform => {
            vec![uniform(
                window,
                scenario,
                expected,
                metric,
                num_chiplets,
                &active,
                &cap_for,
            )]
        }
        ProvisionRule::Exhaustive { max } => {
            exhaustive(window, num_chiplets, &active, &cap_for, max)
        }
    }
}

fn uniform(
    window: &TimeWindow,
    scenario: &Scenario,
    expected: &ExpectedCosts,
    metric: &OptMetric,
    num_chiplets: usize,
    active: &[usize],
    cap_for: &dyn Fn(usize) -> usize,
) -> Vec<usize> {
    let num_models = scenario.models().len();
    let weights: Vec<f64> = active
        .iter()
        .map(|&m| {
            expected
                .expected_metric(m, &window.layers[m], metric)
                .max(1e-30)
        })
        .collect();
    let total: f64 = weights.iter().sum();

    let mut alloc = vec![0usize; num_models];
    // Equation (2) rounding, then clamp to [1, cap]
    for (&m, w) in active.iter().zip(&weights) {
        let ni = ((w / total) * num_chiplets as f64).round() as usize;
        alloc[m] = ni.clamp(1, cap_for(m));
    }
    // repair: shed nodes (largest first) if over capacity
    let mut used: usize = alloc.iter().sum();
    while used > num_chiplets {
        let victim = *active
            .iter()
            .filter(|&&m| alloc[m] > 1)
            .max_by_key(|&&m| alloc[m])
            .expect("sum > chiplets implies some model has > 1 node");
        alloc[victim] -= 1;
        used -= 1;
    }
    alloc
}

fn exhaustive(
    window: &TimeWindow,
    num_chiplets: usize,
    active: &[usize],
    cap_for: &dyn Fn(usize) -> usize,
    max: usize,
) -> Vec<Vec<usize>> {
    let num_models = window.layers.len();
    let caps: Vec<usize> = active.iter().map(|&m| cap_for(m)).collect();
    let mut out = Vec::new();
    let mut cur = vec![1usize; active.len()];
    // odometer enumeration over [1, cap_i] with total ≤ num_chiplets
    'outer: loop {
        if cur.iter().sum::<usize>() <= num_chiplets {
            let mut alloc = vec![0usize; num_models];
            for (i, &m) in active.iter().enumerate() {
                alloc[m] = cur[i];
            }
            out.push(alloc);
            if out.len() >= max {
                break;
            }
        }
        // increment odometer
        for i in 0..cur.len() {
            if cur[i] < caps[i] {
                cur[i] += 1;
                continue 'outer;
            }
            cur[i] = 1;
        }
        break;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scar_mcm::templates::{het_sides_3x3, Profile};

    fn setup(n: usize) -> (Scenario, ExpectedCosts, TimeWindow) {
        let sc = Scenario::datacenter(n);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let session = crate::Session::new();
        let db = session.database();
        let e = ExpectedCosts::compute(&sc, &mcm, db);
        let layers = sc
            .models()
            .iter()
            .map(|sm| 0..sm.model.num_layers())
            .collect();
        (sc, e, TimeWindow { index: 0, layers })
    }

    #[test]
    fn uniform_gives_every_active_model_a_node() {
        let (sc, e, w) = setup(4);
        let allocs = allocations(
            &w,
            &sc,
            &e,
            &OptMetric::Edp,
            9,
            ProvisionRule::Uniform,
            None,
        );
        assert_eq!(allocs.len(), 1);
        let a = &allocs[0];
        assert!(a.iter().all(|&n| n >= 1));
        assert!(a.iter().sum::<usize>() <= 9);
    }

    #[test]
    fn uniform_weights_by_expected_cost() {
        let (sc, e, w) = setup(4);
        let a = &allocations(
            &w,
            &sc,
            &e,
            &OptMetric::Latency,
            9,
            ProvisionRule::Uniform,
            None,
        )[0];
        // the heaviest model should receive at least as many nodes as the
        // lightest
        let heaviest = (0..sc.models().len())
            .max_by(|&x, &y| e.model_latency(x).total_cmp(&e.model_latency(y)))
            .unwrap();
        let lightest = (0..sc.models().len())
            .min_by(|&x, &y| e.model_latency(x).total_cmp(&e.model_latency(y)))
            .unwrap();
        assert!(a[heaviest] >= a[lightest]);
    }

    #[test]
    fn idle_models_get_zero_nodes() {
        let (sc, e, mut w) = setup(2);
        w.layers[1] = 0..0; // BERT idle in this window
        let a = &allocations(
            &w,
            &sc,
            &e,
            &OptMetric::Edp,
            9,
            ProvisionRule::Uniform,
            None,
        )[0];
        assert_eq!(a[1], 0);
        assert!(a[0] >= 1 && a[2] >= 1);
    }

    #[test]
    fn node_constraint_caps_allocations() {
        let (sc, e, w) = setup(4);
        let a = &allocations(
            &w,
            &sc,
            &e,
            &OptMetric::Edp,
            9,
            ProvisionRule::Uniform,
            Some(2),
        )[0];
        assert!(a.iter().all(|&n| n <= 2));
    }

    #[test]
    fn infeasible_window_returns_empty() {
        let (sc, e, w) = setup(4);
        // 4 active models, 3 chiplets
        assert!(allocations(
            &w,
            &sc,
            &e,
            &OptMetric::Edp,
            3,
            ProvisionRule::Uniform,
            None
        )
        .is_empty());
    }

    #[test]
    fn exhaustive_enumerates_within_caps() {
        let (sc, e, w) = setup(1); // 2 models
        let allocs = allocations(
            &w,
            &sc,
            &e,
            &OptMetric::Edp,
            9,
            ProvisionRule::Exhaustive { max: 1000 },
            Some(4),
        );
        assert!(!allocs.is_empty());
        for a in &allocs {
            assert!(a[0] >= 1 && a[0] <= 4);
            assert!(a[1] >= 1 && a[1] <= 4);
            assert!(a.iter().sum::<usize>() <= 9);
        }
        // 4 × 4 = 16 combinations, all within budget
        assert_eq!(allocs.len(), 16);
    }

    #[test]
    fn exhaustive_respects_max() {
        let (sc, e, w) = setup(1);
        let allocs = allocations(
            &w,
            &sc,
            &e,
            &OptMetric::Edp,
            9,
            ProvisionRule::Exhaustive { max: 5 },
            None,
        );
        assert_eq!(allocs.len(), 5);
    }

    #[test]
    fn allocation_never_exceeds_layer_count() {
        let (sc, e, mut w) = setup(1);
        w.layers[0] = 0..2; // GPT-L gets only 2 layers in this window
        let a = &allocations(
            &w,
            &sc,
            &e,
            &OptMetric::Latency,
            9,
            ProvisionRule::Uniform,
            None,
        )[0];
        assert!(a[0] <= 2);
    }
}
