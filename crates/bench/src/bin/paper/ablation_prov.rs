//! §V-E ablation — rule-based vs exhaustive PROV: repeats the EDP search
//! for scenarios 3–5 comparing Equation-2 uniform node distribution
//! against exhaustive enumeration of node distributions.

use scar_bench::strategy::quick_budget;
use scar_bench::table::Table;
use scar_core::{OptMetric, ProvisionRule, Scar, ScheduleRequest, Scheduler, Session};
use scar_maestro::Dataflow;
use scar_mcm::templates::{het_sides_3x3, simba_3x3, Profile};
use scar_workloads::Scenario;

pub fn run(session: &Session) {
    let budget = quick_budget();
    println!("== Ablation: PROV rule (EDP search, Sc3-5) ==\n");
    let mut t = Table::new(vec![
        "Scenario".into(),
        "Strategy".into(),
        "Uniform EDP".into(),
        "Exhaustive EDP".into(),
        "gain".into(),
    ]);
    for scn in 3..=5usize {
        let sc = Scenario::datacenter(scn);
        for (name, mcm) in [
            (
                "Simba (NVD)",
                simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike),
            ),
            ("Het-Sides", het_sides_3x3(Profile::Datacenter)),
        ] {
            let run = |rule: ProvisionRule| {
                let request = ScheduleRequest::new(sc.clone(), mcm.clone())
                    .metric(OptMetric::Edp)
                    .budget(budget.clone());
                Scar::builder()
                    .provisioning(rule)
                    .build()
                    .schedule(session, &request)
                    .map(|r| r.total().edp())
            };
            let uniform = run(ProvisionRule::Uniform);
            let exhaustive = run(ProvisionRule::Exhaustive { max: 64 });
            if let (Ok(u), Ok(e)) = (uniform, exhaustive) {
                t.row(vec![
                    format!("Sc{scn}"),
                    name.into(),
                    format!("{u:.4}"),
                    format!("{e:.4}"),
                    format!("{:.2}x", u / e),
                ]);
            }
        }
    }
    println!("{t}");
    println!("paper shape: exhaustive search refines results slightly but the uniform-rule insights (who wins each scenario) are unchanged.");
}
