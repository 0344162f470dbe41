//! Figure 12 — EDP search for Scenarios 3 and 4 on the triangular NoP
//! topologies (Simba-T Shi/NVD and Het-T), normalized by Standalone (NVD).
//!
//! Demonstrates §V-E's topology generalization: SCAR only needs adjacency-
//! matrix connectivity.

use scar_bench::strategy::{run_strategies, Strategy};
use scar_bench::table::Table;
use scar_core::{OptMetric, SearchBudget, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

pub fn run(session: &Session) {
    let budget = SearchBudget::default();
    let mut strategies = vec![Strategy::StandaloneNvd];
    strategies.extend(Strategy::triangular());

    println!("== Figure 12: triangular NoP, EDP search (normalized by Stand.(NVD)) ==\n");
    let mut t = Table::new(vec![
        "Strategy".into(),
        "Sc3 rel EDP".into(),
        "Sc4 rel EDP".into(),
        "Sc3 rel Lat".into(),
        "Sc4 rel Lat".into(),
    ]);
    let mut cols: Vec<Vec<(String, scar_core::EvalTotals)>> = Vec::new();
    for scn in [3usize, 4] {
        let sc = Scenario::datacenter(scn);
        cols.push(
            run_strategies(
                session,
                &strategies,
                &sc,
                Profile::Datacenter,
                &OptMetric::Edp,
                4,
                &budget,
            )
            .into_iter()
            .map(|r| (r.label, r.result.total()))
            .collect(),
        );
    }
    for strat in &strategies {
        let mut row = vec![strat.name().to_string()];
        for f in [
            Box::new(|t: &scar_core::EvalTotals| t.edp())
                as Box<dyn Fn(&scar_core::EvalTotals) -> f64>,
            Box::new(|t: &scar_core::EvalTotals| t.latency_s),
        ] {
            for col in &cols {
                let base = col
                    .iter()
                    .find(|(n, _)| n == "Stand.(NVD)")
                    .map(|(_, t)| f(t));
                let mine = col
                    .iter()
                    .find(|(n, _)| n == strat.name())
                    .map(|(_, t)| f(t));
                row.push(match (mine, base) {
                    (Some(m), Some(b)) if b > 0.0 => format!("{:.2}", m / b),
                    _ => "-".into(),
                });
            }
        }
        t.row(row);
    }
    println!("{t}");
    println!("paper shape: the same relative patterns as the 3x3 mesh, with shifted gains (\"varying relative gains\", SV-E): NVD-based strategies keep the LM-heavy scenarios; Shi-homogeneous trails.");
}
