//! Shape tests pinning the qualitative findings of the paper's evaluation
//! (§V-F "Summary of Results and Main Insights") at test scale.

use scar::core::baselines::Standalone;
use scar::core::{OptMetric, PackingRule, Scar, ScheduleRequest, Scheduler, SearchBudget, Session};
use scar::maestro::{ChipletConfig, Dataflow};
use scar::mcm::templates::{self, Profile};
use scar::workloads::{zoo, LayerKind, Scenario};

fn quick() -> SearchBudget {
    SearchBudget {
        max_root_perms: 16,
        max_paths_per_model: 8,
        max_placements_per_window: 200,
        max_candidates_per_window: 400,
        ..SearchBudget::default()
    }
}

fn request(sc: &Scenario, mcm: &scar::mcm::McmConfig) -> ScheduleRequest {
    ScheduleRequest::new(sc.clone(), mcm.clone()).budget(quick())
}

/// Per-layer dataflow affinities that the heterogeneous MCM exploits.
#[test]
fn dataflow_affinities_match_the_papers_motivation() {
    let nvd = ChipletConfig::datacenter(Dataflow::NvdlaLike);
    let shi = ChipletConfig::datacenter(Dataflow::ShidiannaoLike);

    // transformer FFN at batch 1: NVDLA wins decisively
    let ffn = LayerKind::Gemm {
        m: 5120,
        k: 1280,
        n: 128,
    };
    assert!(nvd.evaluate(&ffn, 1).time_s * 4.0 < shi.evaluate(&ffn, 1).time_s);

    // U-Net's giant-feature-map convolution: Shidiannao wins
    let unet_conv = LayerKind::Conv2d {
        in_h: 512,
        in_w: 512,
        in_ch: 64,
        out_ch: 64,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
        groups: 1,
    };
    assert!(shi.evaluate(&unet_conv, 1).time_s < nvd.evaluate(&unet_conv, 1).time_s);

    // ResNet's small-map bottleneck convolution: NVDLA at least competitive
    let resnet_conv = LayerKind::Conv2d {
        in_h: 28,
        in_w: 28,
        in_ch: 128,
        out_ch: 128,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
        groups: 1,
    };
    assert!(nvd.evaluate(&resnet_conv, 1).time_s <= shi.evaluate(&resnet_conv, 1).time_s * 1.2);
}

/// Insight: homogeneous NVD patterns suit the small LM scenarios (Sc1-3).
#[test]
fn homogeneous_nvd_wins_light_datacenter_scenarios() {
    let sc = Scenario::datacenter(1);
    let session = Session::new();
    let scar = Scar::with_defaults();
    let nvd = scar
        .schedule(
            &session,
            &request(
                &sc,
                &templates::simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike),
            ),
        )
        .unwrap();
    let shi = scar
        .schedule(
            &session,
            &request(
                &sc,
                &templates::simba_3x3(Profile::Datacenter, Dataflow::ShidiannaoLike),
            ),
        )
        .unwrap();
    assert!(nvd.total().edp() * 5.0 < shi.total().edp());
}

/// Insight: heterogeneous patterns pay off as diversity/load grow
/// (Sc9, the conv-heavy AR/VR scenario, vs the NVD homogeneous package).
#[test]
fn heterogeneous_wins_diverse_arvr_scenario() {
    let sc = Scenario::arvr(9);
    let session = Session::new();
    let scar = Scar::with_defaults();
    let het = scar
        .schedule(
            &session,
            &request(&sc, &templates::het_sides_3x3(Profile::ArVr)),
        )
        .unwrap();
    let nvd = scar
        .schedule(
            &session,
            &request(
                &sc,
                &templates::simba_3x3(Profile::ArVr, Dataflow::NvdlaLike),
            ),
        )
        .unwrap();
    assert!(
        het.total().edp() < nvd.total().edp(),
        "het {} !< nvd {}",
        het.total().edp(),
        nvd.total().edp()
    );
}

/// Insight: inter-chiplet pipelining speeds up batched models when ample
/// resources exist (§V-B "Pipelining Benefits").
#[test]
fn pipelining_beats_standalone_for_batched_vision_models() {
    use scar::workloads::{ScenarioModel, UseCase};
    let sc = Scenario::new(
        "resnet-only",
        UseCase::Datacenter,
        vec![ScenarioModel {
            model: zoo::resnet50(),
            batch: 32,
        }],
    );
    let mcm = templates::simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
    let session = Session::new();
    let stand = Standalone::new()
        .schedule(&session, &request(&sc, &mcm).metric(OptMetric::Latency))
        .unwrap();
    let scar = Scar::builder()
        .nsplits(0)
        .build()
        .schedule(&session, &request(&sc, &mcm).metric(OptMetric::Latency))
        .unwrap();
    assert!(
        scar.total().latency_s < stand.total().latency_s,
        "pipelined {} !< standalone {}",
        scar.total().latency_s,
        stand.total().latency_s
    );
}

/// §V-E ablation: both packing rules produce valid schedules of the same
/// magnitude. (Note: the paper reports greedy ahead of uniform by ~22% in
/// latency; in this reproduction greedy is slower — see the
/// `ablation_packing` section of `PAPER_RESULTS.txt`, and ROADMAP item 1,
/// whose probe found greedy slower in 6 of 6 seeds at both the default and
/// 4× budgets. The invariant pinned here is validity plus
/// same-order-of-magnitude EDP.)
#[test]
fn packing_rules_both_produce_comparable_schedules() {
    let sc = Scenario::datacenter(4);
    let mcm = templates::het_sides_3x3(Profile::Datacenter);
    let session = Session::new();
    let run = |rule| {
        let r = Scar::builder()
            .packing(rule)
            .build()
            .schedule(&session, &request(&sc, &mcm))
            .unwrap();
        r.schedule().validate(&sc, mcm.num_chiplets()).unwrap();
        r.total()
    };
    let greedy = run(PackingRule::Greedy);
    let uniform = run(PackingRule::Uniform);
    let ratio = greedy.edp() / uniform.edp();
    assert!(
        (0.3..=3.0).contains(&ratio),
        "greedy {} vs uniform {}",
        greedy.edp(),
        uniform.edp()
    );
}

/// §V-E topology generalization: triangular NoP schedules are valid and
/// their extra links never hurt hop counts.
#[test]
fn triangular_topology_shortens_routes() {
    let mesh = templates::simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
    let tri = templates::simba_t_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
    for a in 0..9 {
        for b in 0..9 {
            assert!(tri.topology().hops(a, b) <= mesh.topology().hops(a, b));
        }
    }
    assert!(tri.topology().hops(0, 8) < mesh.topology().hops(0, 8));
}

/// Table VI scheduling-unit counts are pinned (the problem size the paper
/// reports).
#[test]
fn table_vi_layer_counts() {
    assert_eq!(zoo::gpt_l().num_layers(), 120);
    assert_eq!(zoo::bert_large().num_layers(), 60);
    assert_eq!(zoo::unet().num_layers(), 23);
    assert_eq!(zoo::resnet50().num_layers(), 66);
    assert_eq!(Scenario::datacenter(4).num_layers(), 269);
}
