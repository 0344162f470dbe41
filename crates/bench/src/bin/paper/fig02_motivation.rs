//! Figure 2 — motivational study on a 2×2 MCM.
//!
//! Workload: 3 layers from ResNet-50's second bottleneck block plus one
//! GPT feed-forward layer; 4096-PE chiplets with 10 MB L2. Compares
//! NN-baton-style single-model scheduling against SCAR's heterogeneous
//! spatial and spatio-temporal schedules, reporting EDP ratios.

use scar_bench::table::{fmt_joules, fmt_seconds, ratio, Table};
use scar_core::baselines::NnBaton;
use scar_core::{OptMetric, Scar, ScheduleRequest, Scheduler, SearchBudget, Session};
use scar_maestro::Dataflow;
use scar_mcm::templates::{het_2x2, homo_2x2, Profile};
use scar_workloads::{ModelBuilder, Scenario, ScenarioModel, UseCase};

/// Three layers of ResNet-50's second bottleneck (stage 1, block 1).
fn resnet_block() -> scar_workloads::Model {
    ModelBuilder::new("ResNet-block2")
        .conv("conv1", 56, 256, 64, 1, 1)
        .conv("conv2", 56, 64, 64, 3, 1)
        .conv("conv3", 56, 64, 256, 1, 1)
        .build()
}

/// One GPT feed-forward (FFN-up) layer.
fn gpt_layer() -> scar_workloads::Model {
    ModelBuilder::new("GPT-FFN")
        .gemm("ffn_up", 5120, 1280, 128)
        .build()
}

fn single(model: scar_workloads::Model) -> Scenario {
    Scenario::new(
        format!("fig2-{}", model.name()),
        UseCase::Datacenter,
        vec![ScenarioModel { model, batch: 1 }],
    )
}

fn multi() -> Scenario {
    Scenario::new(
        "fig2-multi",
        UseCase::Datacenter,
        vec![
            ScenarioModel {
                model: resnet_block(),
                batch: 1,
            },
            ScenarioModel {
                model: gpt_layer(),
                batch: 1,
            },
        ],
    )
}

pub fn run(session: &Session) {
    println!("== Figure 2: motivational study (2x2 MCM, 4096 PEs, 10 MB L2) ==\n");
    let request = |sc: &Scenario, mcm: scar_mcm::McmConfig| {
        ScheduleRequest::new(sc.clone(), mcm)
            .metric(OptMetric::Edp)
            .budget(SearchBudget::default())
    };
    let scar = |nsplits: usize| Scar::builder().nsplits(nsplits).build();

    // --- single-model case (A1-A3): the ResNet block ---
    let rn = single(resnet_block());
    let a1 = NnBaton::new()
        .schedule(
            session,
            &request(&rn, homo_2x2(Profile::Datacenter, Dataflow::ShidiannaoLike)),
        )
        .expect("A1");
    let a2 = NnBaton::new()
        .schedule(
            session,
            &request(&rn, homo_2x2(Profile::Datacenter, Dataflow::NvdlaLike)),
        )
        .expect("A2");
    let a3 = scar(0)
        .schedule(session, &request(&rn, het_2x2(Profile::Datacenter)))
        .expect("A3");

    let mut t = Table::new(vec![
        "Config".into(),
        "Scheduler".into(),
        "Latency".into(),
        "Energy".into(),
        "EDP (J*s)".into(),
        "vs A1".into(),
    ]);
    let base = a1.total().edp();
    for (tag, name, r) in [
        ("A1", "NN-baton w/ Shi", &a1),
        ("A2", "NN-baton w/ NVD", &a2),
        ("A3", "Ours w/ Heterog.", &a3),
    ] {
        let tot = r.total();
        t.row(vec![
            tag.into(),
            name.into(),
            fmt_seconds(tot.latency_s),
            fmt_joules(tot.energy_j),
            format!("{:.3e}", tot.edp()),
            ratio(tot.edp(), base),
        ]);
    }
    println!("Single model (ResNet block):\n{t}");

    // --- multi-model case (B1-B3) ---
    // NN-baton is agnostic to the heterogeneous composition: its starting
    // chiplet on the 2×2 package happens to be the Shidiannao-like one
    // (id 3), which is catastrophic for the GPT feed-forward layer.
    let mm = multi();
    let b1 = NnBaton::from_chiplet(3)
        .schedule(session, &request(&mm, het_2x2(Profile::Datacenter)))
        .expect("B1");
    let b2 = scar(0)
        .schedule(session, &request(&mm, het_2x2(Profile::Datacenter)))
        .expect("B2");
    let b3 = scar(1)
        .schedule(session, &request(&mm, het_2x2(Profile::Datacenter)))
        .expect("B3");

    let mut t = Table::new(vec![
        "Config".into(),
        "Scheduler".into(),
        "Latency".into(),
        "Energy".into(),
        "EDP (J*s)".into(),
        "vs B1".into(),
    ]);
    let base = b1.total().edp();
    for (tag, name, r) in [
        ("B1", "NN-baton (sequential)", &b1),
        ("B2", "Ours: multi-model spatial", &b2),
        ("B3", "Ours: spatio-temporal", &b3),
    ] {
        let tot = r.total();
        t.row(vec![
            tag.into(),
            name.into(),
            fmt_seconds(tot.latency_s),
            fmt_joules(tot.energy_j),
            format!("{:.3e}", tot.edp()),
            ratio(tot.edp(), base),
        ]);
    }
    println!("Multi model (ResNet block + GPT layer):\n{t}");
    println!(
        "paper shape: A3 < A2 < A1; B2/B3 ~0.3x of B1 (spatial/spatio-temporal heterogeneous wins)"
    );
}
