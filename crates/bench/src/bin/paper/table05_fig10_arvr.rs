//! Table V + Figure 10 — AR/VR (XRBench) EDP-search results on the 3×3
//! MCM with 256-PE chiplets, normalized by Standalone (NVD).

use scar_bench::strategy::{run_strategies, Strategy};
use scar_bench::table::Table;
use scar_core::{EvalTotals, OptMetric, SearchBudget, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

pub fn run(session: &Session) {
    let budget = SearchBudget::default();
    let strategies = Strategy::table_iv();
    let scenarios = Scenario::all_arvr();

    let mut results: Vec<Vec<Option<EvalTotals>>> =
        vec![vec![None; scenarios.len()]; strategies.len()];
    for (si, sc) in scenarios.iter().enumerate() {
        for r in run_strategies(
            session,
            &strategies,
            sc,
            Profile::ArVr,
            &OptMetric::Edp,
            4,
            &budget,
        ) {
            if let Some(pos) = strategies.iter().position(|s| s.name() == r.label) {
                results[pos][si] = Some(r.result.total());
            }
        }
    }
    let base_idx = strategies
        .iter()
        .position(|s| s.name() == "Stand.(NVD)")
        .unwrap();

    println!("== Table V / Figure 10: AR/VR EDP search (normalized by Stand.(NVD)) ==\n");
    for (title, f) in [
        (
            "Relative Latency",
            Box::new(|t: &EvalTotals| t.latency_s) as Box<dyn Fn(&EvalTotals) -> f64>,
        ),
        ("Relative EDP", Box::new(|t: &EvalTotals| t.edp())),
    ] {
        let mut table = Table::new(
            std::iter::once("Strategy".to_string())
                .chain((6..=10).map(|i| format!("Sc{i}")))
                .collect(),
        );
        for (pos, strat) in strategies.iter().enumerate() {
            let mut row = vec![strat.name().to_string()];
            for (si, cell) in results[pos].iter().enumerate() {
                let base = results[base_idx][si].as_ref().map(&f);
                row.push(match (cell, base) {
                    (Some(t), Some(b)) if b > 0.0 => format!("{:.2}", f(t) / b),
                    _ => "-".into(),
                });
            }
            table.row(row);
        }
        println!("{title}:\n{table}");
    }
    println!("paper shape: heterogeneous strategies win the diverse scenarios (8-10); the heaviest AR scenarios (6-7) stay close to the NVD-based schedules under resource contention.");
}
