//! Figure 8 — Pareto fronts of the candidate clouds for datacenter
//! scenarios 3 and 4 under each search target.

use scar_bench::pareto::ascii_scatter;
use scar_bench::strategy::{quick_budget, Strategy};
use scar_core::{pareto_front, CandidatePoint, OptMetric, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

pub fn run(session: &Session) {
    let budget = quick_budget();
    let strategies = [
        Strategy::SimbaShi,
        Strategy::SimbaNvd,
        Strategy::HetCb,
        Strategy::HetSides,
    ];
    for scn in [3usize, 4] {
        let sc = Scenario::datacenter(scn);
        for metric in [OptMetric::Latency, OptMetric::Energy, OptMetric::Edp] {
            println!("== Figure 8: {} — {} search ==", sc.name(), metric.label());
            let mut clouds: Vec<(String, Vec<CandidatePoint>)> = Vec::new();
            for s in &strategies {
                if let Ok(r) = s.run(
                    session,
                    &sc,
                    Profile::Datacenter,
                    metric.clone(),
                    4,
                    &budget,
                ) {
                    clouds.push((s.name().to_string(), r.candidates().to_vec()));
                }
            }
            let series: Vec<(&str, &[CandidatePoint])> = clouds
                .iter()
                .map(|(n, pts)| (n.as_str(), pts.as_slice()))
                .collect();
            println!("{}", ascii_scatter(&series, 72, 16));
            for (name, pts) in &clouds {
                let front = pareto_front(pts);
                println!("{name}: {} candidates, Pareto front:", pts.len());
                for p in front.iter().take(8) {
                    println!(
                        "    lat={:.4}s energy={:.4}J edp={:.4}",
                        p.latency_s,
                        p.energy_j,
                        p.edp()
                    );
                }
            }
            println!();
        }
    }
    println!("paper shape: heterogeneous clouds extend the front toward low latency on Sc4; NVD dominates the low-energy corner on Sc3.");
}
