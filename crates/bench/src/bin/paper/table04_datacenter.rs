//! Table IV — datacenter scheduling results on the 3×3 MCM.
//!
//! For each MLPerf scenario (1–5) and each strategy, reports the top
//! latency and EDP under both the Latency Search and the EDP Search
//! (500 MHz chiplets, Table II package parameters).

use scar_bench::strategy::{run_strategies, Strategy};
use scar_bench::table::Table;
use scar_core::{OptMetric, ScheduleArtifact, SearchBudget, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

pub fn run(session: &Session) {
    let budget = SearchBudget::default();
    let strategies = Strategy::table_iv();
    let scenarios: Vec<Scenario> = Scenario::all_datacenter();

    for (label, metric) in [
        ("Latency Search", OptMetric::Latency),
        ("EDP Search", OptMetric::Edp),
    ] {
        println!("== Table IV ({label}) ==");
        let mut lat_table = Table::new(
            std::iter::once("Strategy".to_string())
                .chain((1..=5).map(|i| format!("Sc{i} Lat (s)")))
                .collect(),
        );
        let mut edp_table = Table::new(
            std::iter::once("Strategy".to_string())
                .chain((1..=5).map(|i| format!("Sc{i} EDP (J*s)")))
                .collect(),
        );
        // results[strategy][scenario]
        let mut rows: Vec<Vec<Option<scar_core::EvalTotals>>> =
            vec![vec![None; scenarios.len()]; strategies.len()];
        let mut sweep = Vec::new();
        for (si, sc) in scenarios.iter().enumerate() {
            let res = run_strategies(
                session,
                &strategies,
                sc,
                Profile::Datacenter,
                &metric,
                4,
                &budget,
            );
            for r in res {
                if let Some(pos) = strategies.iter().position(|s| s.name() == r.label) {
                    rows[pos][si] = Some(r.result.total());
                }
                sweep.push(r);
            }
        }
        let artifact_path = format!("ARTIFACT_table04_{}.json", metric.label());
        ScheduleArtifact::save_all(&artifact_path, &sweep).expect("write sweep artifact");
        for (pos, strat) in strategies.iter().enumerate() {
            let mut lrow = vec![strat.name().to_string()];
            let mut erow = vec![strat.name().to_string()];
            for cell in &rows[pos] {
                match cell {
                    Some(t) => {
                        lrow.push(format!("{:.4}", t.latency_s));
                        erow.push(format!("{:.4}", t.edp()));
                    }
                    None => {
                        lrow.push("-".into());
                        erow.push("-".into());
                    }
                }
            }
            lat_table.row(lrow);
            edp_table.row(erow);
        }
        println!("Latency of top-{label} schedule:\n{lat_table}");
        println!("EDP of top-{label} schedule:\n{edp_table}");
        println!("schedules persisted to {artifact_path}");
    }
    println!("paper shape: NVD-based strategies win Sc1-3; heterogeneous strategies close the gap (paper: win) on the heavy Sc4-5; Shi-homogeneous trails throughout.");
}
