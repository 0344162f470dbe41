//! Figure 7 — latency/energy/EDP of top-scoring 3×3 candidates, for each
//! search target, normalized by Standalone (NVD), datacenter scenarios.
//!
//! Nine panels: {Latency, Energy, EDP} Search × {Latency, Energy, EDP}
//! evaluation; the diagonal (A1, B2, C3) are the paper's "matching
//! criteria" plots.

use scar_bench::strategy::{quick_budget, run_strategies, Strategy};
use scar_bench::table::Table;
use scar_core::{EvalTotals, OptMetric, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn metric_value(t: &EvalTotals, which: &str) -> f64 {
    match which {
        "latency" => t.latency_s,
        "energy" => t.energy_j,
        _ => t.edp(),
    }
}

pub fn run(session: &Session) {
    let budget = quick_budget();
    let strategies = Strategy::table_iv();
    let scenarios = Scenario::all_datacenter();

    for (panel_row, metric) in [
        ("A", OptMetric::Latency),
        ("B", OptMetric::Energy),
        ("C", OptMetric::Edp),
    ] {
        // run once per scenario; evaluate under all three axes
        let mut per_sc: Vec<Vec<(String, EvalTotals)>> = Vec::new();
        for sc in &scenarios {
            per_sc.push(
                run_strategies(
                    session,
                    &strategies,
                    sc,
                    Profile::Datacenter,
                    &metric,
                    4,
                    &budget,
                )
                .into_iter()
                .map(|r| (r.label, r.result.total()))
                .collect(),
            );
        }
        for (panel_col, eval_axis) in ["latency", "energy", "edp"].iter().enumerate() {
            println!(
                "== Figure 7-{panel_row}{} : {} search, {} evaluation (normalized by Stand.(NVD)) ==",
                panel_col + 1,
                metric.label(),
                eval_axis
            );
            let mut t = Table::new(
                std::iter::once("Strategy".to_string())
                    .chain((1..=5).map(|i| format!("Sc{i}")))
                    .collect(),
            );
            for strat in &strategies {
                let mut row = vec![strat.name().to_string()];
                for sc_results in &per_sc {
                    let base = sc_results
                        .iter()
                        .find(|(n, _)| n == "Stand.(NVD)")
                        .map(|(_, t)| metric_value(t, eval_axis));
                    let mine = sc_results
                        .iter()
                        .find(|(n, _)| n == strat.name())
                        .map(|(_, t)| metric_value(t, eval_axis));
                    row.push(match (mine, base) {
                        (Some(m), Some(b)) if b > 0.0 => format!("{:.2}", m / b),
                        _ => "-".into(),
                    });
                }
                t.row(row);
            }
            println!("{t}");
        }
    }
    println!("paper shape: diagonal panels show the searched metric winning; heterogeneous strategies trade energy for speed on heavy scenarios (C3 vs B3).");
}
