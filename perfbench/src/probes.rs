//! Layer probes: the bottom layers timed through their public functions on
//! the paper's requests, independent of which workload is running.
//!
//! * `scar-maestro`: one cold `Session::warm_up` per paper request, then
//!   `CostDatabase::get` over every key it memoized;
//! * `scar-core` generation: `segmentation::top_k_for_model` over each
//!   paper model and node count, and `tree::enumerate_placements` under
//!   the default budget, both on the Het-Sides 3×3 requests;
//! * `scar-serve` cache: `cache::fingerprint_parts_in_context` over live
//!   scenarios built from the burst mix's streams at every batch up to
//!   `max_batch_per_stream`.

use crate::workloads::{burst_mix, overload_config, PaperRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scar_core::{segmentation, tree, ExpectedCosts, Scheduler, Session};
use scar_mcm::templates::{het_sides_3x3, Profile};
use scar_serve::{fingerprint_parts_in_context, PolicyRegistry, ServeContext};
use scar_workloads::{Scenario, ScenarioModel};
use std::hint::black_box;
use std::time::Instant;

/// Fingerprint repetitions per live scenario (one call is a few µs).
const FINGERPRINT_REPS: usize = 8;

/// What the probes measured.
#[derive(Debug, Default)]
pub struct Probes {
    /// Cold `Session::warm_up` per paper request, ms.
    pub warm_up_ms: Vec<f64>,
    /// Mean `CostDatabase::get` hit time per paper request, ns.
    pub get_hit_ns: Vec<f64>,
    /// `top_k_for_model` call times, µs.
    pub top_k_us: Vec<f64>,
    /// `enumerate_placements` call times, µs.
    pub placements_us: Vec<f64>,
    /// Placements those calls returned.
    pub placements: u64,
    /// `fingerprint_parts_in_context` call times, µs.
    pub fingerprint_us: Vec<f64>,
}

/// Runs every probe once over `requests` (the paper requests) and the
/// burst mix drawn from `seed`.
pub fn run(requests: &[PaperRequest], seed: u64) -> Probes {
    let mut p = Probes::default();
    for req in requests {
        let r = &req.request;
        let session = Session::new();
        let t0 = Instant::now();
        session.warm_up(r);
        p.warm_up_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let db = session.database();
        let mut gets = 0u32;
        let t0 = Instant::now();
        for sm in r.scenario.models() {
            for layer in sm.model.layers() {
                for ch in r.mcm.chiplets() {
                    black_box(db.get(ch, &layer.kind, sm.batch));
                    gets += 1;
                }
            }
        }
        p.get_hit_ns
            .push(t0.elapsed().as_secs_f64() * 1e9 / f64::from(gets.max(1)));

        if r.mcm.num_chiplets() == 9 {
            generation(&mut p, &r.scenario, req, &session);
        }
    }
    fingerprints(&mut p, seed);
    p
}

/// Segmentation and placement generation on one 3×3 paper request.
fn generation(p: &mut Probes, scenario: &Scenario, req: &PaperRequest, session: &Session) {
    let r = &req.request;
    let budget = &r.budget;
    let chiplets = r.mcm.num_chiplets();
    let expected = ExpectedCosts::compute(scenario, &r.mcm, session.database());
    let mut rng = StdRng::seed_from_u64(budget.seed);
    for (m, sm) in scenario.models().iter().enumerate() {
        let layers = sm.model.num_layers();
        for nodes in 1..=chiplets.min(layers) {
            let t0 = Instant::now();
            let cands = segmentation::top_k_for_model(
                scenario,
                &r.mcm,
                &expected,
                m,
                &(0..layers),
                nodes,
                budget.top_k_segmentations,
                budget.max_segmentations_enumerated,
                &mut rng,
            );
            p.top_k_us.push(t0.elapsed().as_secs_f64() * 1e6);
            black_box(cands);
        }
    }
    let models = scenario.models().len();
    for depth in 1..=chiplets / models.max(1) {
        let seg_counts = vec![depth; models];
        let prefs = tree::identity_prefs(chiplets, models);
        let t0 = Instant::now();
        let placements = tree::enumerate_placements(
            &r.mcm,
            &seg_counts,
            &prefs,
            budget.max_root_perms,
            budget.max_paths_per_model,
            budget.max_placements_per_window,
            &mut rng,
        );
        p.placements_us.push(t0.elapsed().as_secs_f64() * 1e6);
        p.placements += placements.len() as u64;
    }
}

/// Cache-key hashing over the live scenarios a serving round can form.
fn fingerprints(p: &mut Probes, seed: u64) {
    let mix = burst_mix(seed);
    let mcm = het_sides_3x3(Profile::ArVr);
    let cfg = overload_config();
    let scheduler: Box<dyn Scheduler> = PolicyRegistry::with_builtins()
        .build("SCAR", &cfg)
        .expect("SCAR is a built-in policy");
    for batch in 1..=cfg.max_batch_per_stream {
        let live = Scenario::new(
            format!("{} @ batch {batch}", mix.name),
            mix.use_case,
            mix.streams
                .iter()
                .map(|s| ScenarioModel {
                    model: s.model.clone(),
                    batch: batch * s.samples_per_request,
                })
                .collect(),
        );
        for _ in 0..FINGERPRINT_REPS {
            let t0 = Instant::now();
            black_box(fingerprint_parts_in_context(
                &live,
                &mcm,
                &cfg.metric,
                &cfg.budget,
                scheduler.as_ref(),
                ServeContext::default(),
            ));
            p.fingerprint_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
}
