//! Replay a saved `ScheduleArtifact` sweep and diff it against a fresh
//! re-evaluation — the fidelity re-anchoring harness.
//!
//! ```sh
//! # exact-replay regression over a recorded serving round (zero drift
//! # expected: serve_sim records under the default serving config)
//! cargo run --release -p scar-bench --bin replay -- ARTIFACT_serve_datacenter.json
//!
//! # warm-start the cost database from a snapshot before replaying
//! SCAR_COST_DB=costdb.json cargo run --release -p scar-bench --bin replay -- ARTIFACT_serve_AR-VR.json
//!
//! # what-if: re-target every recorded request at a different package
//! SCAR_REPLAY_MCM=simba_nvd cargo run --release -p scar-bench --bin replay -- ARTIFACT_table04_edp.json
//!
//! # what-if: re-price every recorded request under a wireless fabric
//! SCAR_REPLAY_FABRIC=wireless cargo run --release -p scar-bench --bin replay -- ARTIFACT_table04_edp.json
//! ```
//!
//! Artifacts record the answering scheduler's *name and configuration*
//! (window splits, search driver); replay rebuilds each scheduler from
//! that pair as a policy file ([`scar_serve::PolicyFile`]), so the
//! recorded configuration is reconstructed exactly.
//!
//! Exit code 1 when replaying **without** an MCM override and any
//! artifact fails to reproduce exactly — or could not be replayed at all
//! (unknown scheduler name): under an unchanged cost model, scheduling is
//! deterministic, so drift means the model (or a scheduler
//! reconstruction) changed out from under the recording. With
//! `SCAR_REPLAY_MCM` or `SCAR_REPLAY_FABRIC` set, drift is the expected
//! output, not an error (a fabric swaps the whole `Lat_com` pricing, so
//! schedules legitimately move — that's the experiment).
//! With `SCAR_REPLAY_BAND=<frac>` set (e.g. `0.05` for ±5%), the gate is
//! the fidelity *tolerance band* instead of exactness: totals drift
//! within the band passes, outside it fails — the re-anchoring mode for
//! intentional cost-model changes. Bands judge totals only (a changed
//! model legitimately re-places work), so band mode does not check
//! placement identity; use the default exactness gate for
//! unchanged-model regressions.

use scar_bench::replay::{band_violations, replay_artifacts, ReplayOptions, ToleranceBand};
use scar_core::{ScheduleArtifact, Session};
use scar_maestro::Dataflow;
use scar_mcm::templates::{self, Profile};
use scar_mcm::McmConfig;
use scar_serve::PolicyRegistry;
use std::process::ExitCode;

/// Resolves `SCAR_REPLAY_MCM` names to template constructors. Profiles
/// default to datacenter; suffix `:arvr` picks the AR/VR chiplet profile
/// (e.g. `het_sides:arvr`).
fn mcm_by_name(spec: &str) -> Option<McmConfig> {
    let (name, profile) = match spec.rsplit_once(':') {
        Some((n, "arvr")) => (n, Profile::ArVr),
        Some((n, "datacenter")) => (n, Profile::Datacenter),
        _ => (spec, Profile::Datacenter),
    };
    Some(match name {
        "simba_shi" => templates::simba_3x3(profile, Dataflow::ShidiannaoLike),
        "simba_nvd" => templates::simba_3x3(profile, Dataflow::NvdlaLike),
        "het_cb" => templates::het_cb_3x3(profile),
        "het_sides" => templates::het_sides_3x3(profile),
        "het_t" => templates::het_t_3x3(profile),
        "het_cross" => templates::het_cross_6x6(profile),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: replay <ARTIFACT_*.json> [more artifact files…]");
        eprintln!(
            "env: SCAR_COST_DB=<snapshot> (warm-start costs), \
             SCAR_REPLAY_MCM=<template[:profile]>, \
             SCAR_REPLAY_FABRIC=none|nop|wireless, SCAR_REPLAY_BAND=<frac> \
             (±band gate instead of exactness)"
        );
        return ExitCode::from(2);
    }

    let band: Option<ToleranceBand> = match std::env::var("SCAR_REPLAY_BAND") {
        Ok(f) => match f.parse::<f64>() {
            Ok(frac) if frac >= 0.0 && frac.is_finite() => Some(ToleranceBand::uniform(frac)),
            _ => {
                eprintln!("SCAR_REPLAY_BAND={f:?} is not a non-negative fraction");
                return ExitCode::from(2);
            }
        },
        Err(_) => None,
    };

    let mut options = ReplayOptions::default();
    if let Ok(spec) = std::env::var("SCAR_REPLAY_MCM") {
        match mcm_by_name(&spec) {
            Some(mcm) => {
                println!("re-targeting every request at {mcm}");
                options.mcm_override = Some(mcm);
            }
            None => {
                eprintln!(
                    "SCAR_REPLAY_MCM={spec:?} is not a known template \
                     (simba_shi, simba_nvd, het_cb, het_sides, het_t, het_cross; \
                     optional :datacenter/:arvr suffix)"
                );
                return ExitCode::from(2);
            }
        }
    }

    if let Ok(spec) = std::env::var("SCAR_REPLAY_FABRIC") {
        match scar_mcm::InterconnectSpec::parse(&spec) {
            Ok(fabric) => {
                println!(
                    "re-pricing every request under the {} fabric",
                    fabric.as_ref().map_or("none (stripped)", |f| f.label())
                );
                options.fabric_override = Some(fabric);
            }
            Err(e) => {
                eprintln!("SCAR_REPLAY_FABRIC: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let session = Session::new();
    if let Ok(snapshot) = std::env::var("SCAR_COST_DB") {
        match session.load_costs(&snapshot) {
            Ok(n) => {
                println!("cost database warm-started from {snapshot}: {n} entries, 0 evaluations")
            }
            Err(e) => {
                eprintln!("SCAR_COST_DB={snapshot}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let registry = PolicyRegistry::with_zoo();
    let what_if = options.mcm_override.is_some() || options.fabric_override.is_some();
    let mut all_exact = true;
    let mut violations = 0usize;
    let mut skipped = 0usize;
    for path in &paths {
        let artifacts = match ScheduleArtifact::load_all(path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        let diffs = replay_artifacts(&session, &artifacts, &registry, &options);
        // a skipped artifact (unknown scheduler name) reproduced nothing:
        // it must fail the exactness gate, not silently pass it
        skipped += artifacts.len() - diffs.len();
        println!(
            "── {path}: {} artifacts, {} replayed",
            artifacts.len(),
            diffs.len()
        );
        for d in &diffs {
            println!("{d}");
            all_exact &= d.is_exact();
        }
        if let Some(band) = &band {
            for v in band_violations(&diffs, band) {
                eprintln!("band violation (±{:.2}%): {v}", band.latency_frac * 100.0);
                violations += 1;
            }
        }
    }
    println!(
        "cost database: {} entries, {} evaluations during replay",
        session.cached_costs(),
        session.cost_evaluations()
    );

    if !what_if && skipped > 0 {
        eprintln!(
            "{skipped} artifact(s) could not be replayed (scheduler name unknown to the registry)"
        );
        return ExitCode::FAILURE;
    }
    if let Some(band) = &band {
        // band mode: the ± tolerance is the gate (re-anchoring after an
        // intentional model change); exactness is not required
        if violations > 0 {
            eprintln!(
                "{violations} artifact(s) drifted outside the ±{:.2}% tolerance band",
                band.latency_frac * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!(
            "all artifacts re-anchor within the ±{:.2}% tolerance band",
            band.latency_frac * 100.0
        );
        return ExitCode::SUCCESS;
    }
    if !what_if && !all_exact {
        eprintln!(
            "replay drifted from the recording under an unchanged MCM — cost model or \
             scheduler reconstruction changed"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
