//! Parallel-evaluation determinism: the same scenario scheduled with
//! `Parallelism::Serial`, `Fixed(2)`, `Fixed(8)`, and `Auto` must yield
//! identical `ScheduleResult` totals, window reports, and candidate clouds.
//!
//! This is the contract the window-search engine guarantees by merging
//! batch-evaluation results in generation order (all RNG draws live on the
//! single-threaded generation side), and it is what justifies excluding
//! the parallelism knob from schedule-cache fingerprints.

use scar::core::{
    EvoParams, OptMetric, Parallelism, Scar, ScheduleRequest, ScheduleResult, Scheduler,
    SearchBudget, SearchKind, Session,
};
use scar::mcm::templates::{het_cross_6x6, het_sides_3x3, Profile};
use scar::mcm::McmConfig;
use scar::workloads::Scenario;

fn quick_budget(parallelism: Parallelism) -> SearchBudget {
    SearchBudget {
        max_root_perms: 12,
        max_paths_per_model: 6,
        max_placements_per_window: 200,
        max_candidates_per_window: 400,
        parallelism,
        ..SearchBudget::default()
    }
}

fn schedule(
    sc: &Scenario,
    mcm: &McmConfig,
    kind: SearchKind,
    metric: OptMetric,
    parallelism: Parallelism,
) -> ScheduleResult {
    let request = ScheduleRequest::new(sc.clone(), mcm.clone())
        .metric(metric)
        .budget(quick_budget(parallelism));
    Scar::builder()
        .nsplits(2)
        .search(kind)
        .build()
        .schedule(&Session::new(), &request)
        .expect("scenario schedules")
}

fn assert_identical(a: &ScheduleResult, b: &ScheduleResult, what: &str) {
    assert_eq!(a.total(), b.total(), "{what}: totals diverged");
    assert_eq!(
        a.schedule(),
        b.schedule(),
        "{what}: chosen schedule diverged"
    );
    assert_eq!(a.windows(), b.windows(), "{what}: window reports diverged");
    assert_eq!(
        a.candidates(),
        b.candidates(),
        "{what}: candidate clouds diverged"
    );
}

const THREADINGS: [Parallelism; 2] = [Parallelism::Fixed(2), Parallelism::Fixed(8)];

#[test]
fn brute_force_is_identical_across_thread_counts() {
    let sc = Scenario::datacenter(1);
    let mcm = het_sides_3x3(Profile::Datacenter);
    let serial = schedule(
        &sc,
        &mcm,
        SearchKind::BruteForce,
        OptMetric::Edp,
        Parallelism::Serial,
    );
    for par in THREADINGS {
        let parallel = schedule(&sc, &mcm, SearchKind::BruteForce, OptMetric::Edp, par);
        assert_identical(&serial, &parallel, &format!("brute {par:?}"));
    }
}

#[test]
fn evolutionary_is_identical_across_thread_counts() {
    // the EA is the adversarial case: its generation loop *feeds on*
    // evaluation scores, so any evaluation-order leak would diverge here
    let sc = Scenario::datacenter(4);
    let mcm = het_cross_6x6(Profile::Datacenter);
    // the default parameters, and a serving-scale population whose large
    // generations give the engine full batches to spread across workers
    for params in [
        EvoParams::default(),
        EvoParams {
            population: 24,
            generations: 6,
            mutation_rate: 0.3,
        },
    ] {
        let kind = SearchKind::Evolutionary(params);
        let serial = schedule(&sc, &mcm, kind.clone(), OptMetric::Edp, Parallelism::Serial);
        for par in THREADINGS.into_iter().chain([Parallelism::Auto]) {
            let parallel = schedule(&sc, &mcm, kind.clone(), OptMetric::Edp, par);
            assert_identical(&serial, &parallel, &format!("{params:?} {par:?}"));
        }
    }
}

#[test]
fn metrics_other_than_edp_are_deterministic_too() {
    let sc = Scenario::datacenter(2);
    let mcm = het_sides_3x3(Profile::Datacenter);
    for metric in [OptMetric::Latency, OptMetric::Energy] {
        let serial = schedule(
            &sc,
            &mcm,
            SearchKind::BruteForce,
            metric.clone(),
            Parallelism::Serial,
        );
        let parallel = schedule(
            &sc,
            &mcm,
            SearchKind::BruteForce,
            metric.clone(),
            Parallelism::Fixed(8),
        );
        assert_identical(&serial, &parallel, metric.label());
    }
}

#[test]
fn auto_matches_serial() {
    // Auto resolves to whatever the host offers; results must still match
    let sc = Scenario::datacenter(1);
    let mcm = het_sides_3x3(Profile::Datacenter);
    let serial = schedule(
        &sc,
        &mcm,
        SearchKind::BruteForce,
        OptMetric::Edp,
        Parallelism::Serial,
    );
    let auto = schedule(
        &sc,
        &mcm,
        SearchKind::BruteForce,
        OptMetric::Edp,
        Parallelism::Auto,
    );
    assert_identical(&serial, &auto, "auto");
}
