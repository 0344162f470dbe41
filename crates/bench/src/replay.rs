//! Artifact replay: re-evaluate recorded schedules under today's model.
//!
//! Every bench binary and the serving simulator persist their schedules as
//! [`ScheduleArtifact`] JSON (request + scheduler name + result). Replay
//! closes the fidelity loop ROADMAP asks for: load a recorded sweep,
//! rebuild each artifact's scheduler from its recorded name and
//! configuration (a [`PolicyFile`] built through the serving
//! [`PolicyRegistry`]), re-run the recorded request over a shared
//! [`Session`] — optionally warm-started from a cost-database snapshot, or
//! re-targeted at a different MCM — and diff the outcome against what was
//! recorded.
//!
//! Three uses fall out of one mechanism:
//!
//! * **Re-anchoring.** After a cost-model change, replaying a committed
//!   sweep shows exactly which strategies drifted and by how much — the
//!   tolerance-band comparison harness in miniature.
//! * **Regression.** Under an *unchanged* model, every diff must be zero:
//!   scheduling is deterministic, so a nonzero diff on identical inputs
//!   is a reproducibility bug (or an artifact recorded under a scheduler
//!   configuration the registry no longer reconstructs — reported, not
//!   hidden).
//! * **What-if.** Replaying a recorded workload against a different MCM
//!   re-answers the paper's strategy comparison for traffic that actually
//!   happened rather than a synthetic Table III scenario.

use scar_core::{EvalTotals, ScheduleArtifact, ScheduleError, Session};
use scar_mcm::{InterconnectSpec, McmConfig};
use scar_serve::{PolicyFile, PolicyRegistry, ServeConfig};

/// One artifact's recorded-vs-replayed comparison.
#[derive(Debug, Clone)]
pub struct ReplayDiff {
    /// The artifact's label (strategy name, mix round, …).
    pub label: String,
    /// The scheduler name the artifact recorded (and the replay rebuilt).
    pub scheduler: String,
    /// Totals as recorded in the artifact.
    pub recorded: EvalTotals,
    /// Totals after re-evaluation, or the scheduling error if the request
    /// no longer schedules (e.g. a smaller replay MCM).
    pub replayed: Result<EvalTotals, ScheduleError>,
    /// Whether the replayed *schedule* (placement, not just totals) is
    /// identical to the recorded one.
    pub identical_schedule: bool,
    /// MAESTRO cost-model evaluations this artifact's replay performed
    /// (0 when the session's cost database — warm-started or filled by an
    /// earlier artifact in the sweep — already covered every layer).
    pub cost_evaluations: u64,
    /// Cost-database entries held by the session after this replay.
    pub cached_costs: usize,
}

/// Relative drift `(replayed - recorded) / recorded`, guarded for the
/// degenerate denominators a recorded artifact can legally carry:
/// bit-equal values are zero drift even when the recorded total is `0.0`
/// (previously `0/0 = NaN`, which [`ReplayDiff::within`] rejected against
/// *every* band — even [`ToleranceBand::exact`] on a bit-exact replay),
/// and a genuine departure from a zero recording is infinite drift
/// (outside every band) rather than NaN or a signless `±inf` ambiguity.
fn rel_drift(replayed: f64, recorded: f64) -> f64 {
    if replayed == recorded {
        0.0
    } else if recorded == 0.0 {
        f64::INFINITY
    } else {
        (replayed - recorded) / recorded
    }
}

impl ReplayDiff {
    /// Relative latency drift `(replayed - recorded) / recorded`, if the
    /// replay scheduled. A bit-exact replay is `0.0` drift even for a
    /// zero-latency recording; only a genuine departure from a zero
    /// recording yields `∞` (never `0/0 = NaN`, which every band passed).
    pub fn latency_drift(&self) -> Option<f64> {
        self.replayed
            .as_ref()
            .ok()
            .map(|r| rel_drift(r.latency_s, self.recorded.latency_s))
    }

    /// Relative EDP drift, if the replay scheduled. Guarded like
    /// [`ReplayDiff::latency_drift`] for zero-EDP recordings.
    pub fn edp_drift(&self) -> Option<f64> {
        self.replayed
            .as_ref()
            .ok()
            .map(|r| rel_drift(r.edp(), self.recorded.edp()))
    }

    /// True when the replay reproduced the recorded totals bit-for-bit.
    pub fn is_exact(&self) -> bool {
        matches!(&self.replayed, Ok(r) if *r == self.recorded) && self.identical_schedule
    }

    /// True when the replayed totals drifted no further than `band` allows
    /// in either direction (a failed replay is never within any band).
    /// This is the fidelity gate for *intentional* model changes: exact
    /// replay is the regression gate, ± bands are the re-anchoring gate.
    ///
    /// Bands judge **totals only** — deliberately. A changed cost model
    /// legitimately re-places work, so `identical_schedule` is *not*
    /// consulted here (unlike [`ReplayDiff::is_exact`], which requires
    /// it). A zero-width band is therefore still weaker than the
    /// exactness gate: use `is_exact` to catch placement-identity
    /// regressions under an unchanged model.
    pub fn within(&self, band: &ToleranceBand) -> bool {
        match (self.latency_drift(), self.edp_drift()) {
            (Some(lat), Some(edp)) => lat.abs() <= band.latency_frac && edp.abs() <= band.edp_frac,
            _ => false,
        }
    }
}

/// Symmetric relative tolerance on replay *totals* drift: a diff passes
/// when `|drift| ≤ frac` on each tracked metric (schedule placement
/// identity is never part of a band — see [`ReplayDiff::within`]).
/// `ToleranceBand::exact()` (zero width) admits only drift-free totals;
/// [`ToleranceBand::uniform`] builds the common equal-width band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceBand {
    /// Maximum |relative latency drift| admitted.
    pub latency_frac: f64,
    /// Maximum |relative EDP drift| admitted.
    pub edp_frac: f64,
}

impl ToleranceBand {
    /// The same ± fraction on every metric (e.g. `uniform(0.05)` = ±5%).
    ///
    /// # Panics
    ///
    /// Panics if `frac` is negative or not finite.
    pub fn uniform(frac: f64) -> Self {
        assert!(
            frac >= 0.0 && frac.is_finite(),
            "tolerance must be a non-negative finite fraction"
        );
        Self {
            latency_frac: frac,
            edp_frac: frac,
        }
    }

    /// The zero-width band: only drift-free *totals* pass (still weaker
    /// than [`ReplayDiff::is_exact`], which also requires the identical
    /// placement).
    pub fn exact() -> Self {
        Self::uniform(0.0)
    }
}

/// The diffs of `diffs` that drift outside `band` (empty = the whole sweep
/// re-anchors within tolerance).
pub fn band_violations<'a>(diffs: &'a [ReplayDiff], band: &ToleranceBand) -> Vec<&'a ReplayDiff> {
    diffs.iter().filter(|d| !d.within(band)).collect()
}

impl std::fmt::Display for ReplayDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.replayed {
            Ok(r) => write!(
                f,
                "{:<24} {:<12} lat {:>10.4}ms → {:>10.4}ms ({:+.3}%) | edp {:>10.4} → {:>10.4} ({:+.3}%) | {} cost evals (db {}){}",
                self.label,
                self.scheduler,
                self.recorded.latency_s * 1e3,
                r.latency_s * 1e3,
                self.latency_drift().unwrap_or(0.0) * 100.0,
                self.recorded.edp(),
                r.edp(),
                self.edp_drift().unwrap_or(0.0) * 100.0,
                self.cost_evaluations,
                self.cached_costs,
                if self.is_exact() { " [exact]" } else { "" },
            ),
            Err(e) => write!(
                f,
                "{:<24} {:<12} recorded lat {:.4}ms, replay failed: {e}",
                self.label,
                self.scheduler,
                self.recorded.latency_s * 1e3,
            ),
        }
    }
}

/// Options steering one replay pass.
#[derive(Default)]
pub struct ReplayOptions {
    /// Substitute MCM: every request is re-targeted at this package
    /// instead of the recorded one (the "what-if" mode). `None` replays
    /// on the recorded hardware.
    pub mcm_override: Option<McmConfig>,
    /// Substitute communication fabric: `Some(spec)` re-prices every
    /// request's package (recorded or overridden) under that
    /// [`InterconnectSpec`] — `Some(None)` strips any recorded fabric
    /// back to the plain Table II model. Like [`mcm_override`], this is a
    /// what-if: a wireless fabric re-prices the on-package NoP too, so
    /// schedules legitimately move. `None` (outer) keeps whatever the
    /// artifact recorded.
    ///
    /// [`mcm_override`]: ReplayOptions::mcm_override
    pub fabric_override: Option<Option<InterconnectSpec>>,
}

/// Replays `artifacts` over `session`, rebuilding each scheduler from
/// `registry` by its recorded name and configuration
/// ([`ScheduleArtifact::scheduler_config`]). The pair is a
/// [`PolicyFile`], applied over the default [`ServeConfig`], so a sweep
/// recorded under `nsplits = 4` replays under `nsplits = 4`.
/// Artifacts whose scheduler name the registry does not know are skipped
/// with a note on stderr (a registry gap is worth seeing, not worth
/// aborting a sweep over).
pub fn replay_artifacts(
    session: &Session,
    artifacts: &[ScheduleArtifact],
    registry: &PolicyRegistry,
    options: &ReplayOptions,
) -> Vec<ReplayDiff> {
    artifacts
        .iter()
        .filter_map(|a| {
            let recorded = PolicyFile {
                policy: a.scheduler.clone(),
                overrides: a.scheduler_config.clone(),
            };
            let scheduler = match recorded.build(registry, &ServeConfig::default()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("replay: skipping {:?}: {e}", a.label);
                    return None;
                }
            };
            let mut request = a.request.clone();
            if let Some(mcm) = &options.mcm_override {
                request.mcm = mcm.clone();
            }
            if let Some(fabric) = &options.fabric_override {
                request.mcm = request.mcm.with_interconnect(*fabric);
            }
            let evals_before = session.cost_evaluations();
            let replayed = scheduler.schedule(session, &request);
            let identical_schedule = matches!(
                &replayed,
                Ok(r) if r.schedule() == a.result.schedule()
            );
            Some(ReplayDiff {
                label: a.label.clone(),
                scheduler: a.scheduler.clone(),
                recorded: a.result.total(),
                replayed: replayed.map(|r| r.total()),
                identical_schedule,
                cost_evaluations: session.cost_evaluations() - evals_before,
                cached_costs: session.cached_costs(),
            })
        })
        .collect()
}

/// Loads an artifact file and replays it over a fresh or caller-provided
/// session. Convenience wrapper for the `replay` binary and tests.
///
/// # Errors
///
/// Returns the artifact loader's message on I/O or schema failure.
pub fn replay_file(
    session: &Session,
    path: impl AsRef<std::path::Path>,
    options: &ReplayOptions,
) -> Result<Vec<ReplayDiff>, String> {
    let artifacts = ScheduleArtifact::load_all(path)?;
    Ok(replay_artifacts(
        session,
        &artifacts,
        &PolicyRegistry::with_zoo(),
        options,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scar_core::{ScheduleRequest, SearchBudget};
    use scar_maestro::Dataflow;
    use scar_mcm::templates::{het_sides_3x3, simba_3x3, Profile};
    use scar_workloads::Scenario;

    fn artifact() -> ScheduleArtifact {
        let session = Session::new();
        let request =
            ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter))
                .budget(SearchBudget {
                    max_root_perms: 8,
                    max_paths_per_model: 4,
                    max_placements_per_window: 60,
                    max_candidates_per_window: 120,
                    ..SearchBudget::default()
                });
        // record through the same registry reconstruction replay will use:
        // artifacts carry the scheduler's name and configuration, so exact
        // replay holds when the registry rebuilds that configuration
        let scar = PolicyRegistry::with_builtins()
            .build("SCAR", &ServeConfig::default())
            .unwrap();
        let result = scar.schedule(&session, &request).unwrap();
        ScheduleArtifact::of("Sc1", scar.as_ref(), request, result)
    }

    /// Replaying under the unchanged cost model reproduces the recording
    /// exactly — determinism across processes is the whole point.
    #[test]
    fn unchanged_model_replays_exactly() {
        let a = artifact();
        let diffs = replay_artifacts(
            &Session::new(),
            &[a],
            &PolicyRegistry::with_builtins(),
            &ReplayOptions::default(),
        );
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].is_exact(), "{}", diffs[0]);
        assert_eq!(diffs[0].latency_drift(), Some(0.0));
        assert_eq!(diffs[0].edp_drift(), Some(0.0));
        // the fresh replay session had to evaluate costs, and the diff
        // surfaces both the work and the resulting database size
        assert!(diffs[0].cost_evaluations > 0);
        assert!(diffs[0].cached_costs > 0);
        let text = diffs[0].to_string();
        assert!(text.contains("cost evals"), "{text}");
    }

    /// An MCM override re-evaluates the recorded request on new hardware:
    /// totals legitimately move, and the diff reports rather than hides it.
    #[test]
    fn mcm_override_retargets_the_request() {
        let a = artifact();
        let options = ReplayOptions {
            mcm_override: Some(simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike)),
            ..Default::default()
        };
        let diffs = replay_artifacts(
            &Session::new(),
            &[a],
            &PolicyRegistry::with_builtins(),
            &options,
        );
        let replayed = diffs[0].replayed.as_ref().expect("still schedulable");
        assert_ne!(
            *replayed, diffs[0].recorded,
            "different package, different totals"
        );
        assert!(!diffs[0].is_exact());
        // the display renders both sides
        let text = diffs[0].to_string();
        assert!(text.contains("lat"), "{text}");
    }

    /// A fabric override is a what-if like an MCM override: wireless
    /// re-prices every on-package transfer, so the recorded totals move —
    /// and stripping the fabric again restores exact replay.
    #[test]
    fn fabric_override_reprices_the_request() {
        let a = artifact();
        let options = ReplayOptions {
            fabric_override: Some(Some(InterconnectSpec::wireless())),
            ..Default::default()
        };
        let diffs = replay_artifacts(
            &Session::new(),
            std::slice::from_ref(&a),
            &PolicyRegistry::with_builtins(),
            &options,
        );
        let replayed = diffs[0].replayed.as_ref().expect("still schedulable");
        assert_ne!(
            *replayed, diffs[0].recorded,
            "wireless pricing must move the totals"
        );

        // explicit `none` on a fabric-less artifact is the identity
        let strip = ReplayOptions {
            fabric_override: Some(None),
            ..Default::default()
        };
        let diffs = replay_artifacts(
            &Session::new(),
            &[a],
            &PolicyRegistry::with_builtins(),
            &strip,
        );
        assert!(diffs[0].is_exact(), "{}", diffs[0]);
    }

    #[test]
    fn unknown_schedulers_are_skipped_not_fatal() {
        let mut a = artifact();
        a.scheduler = "from-the-future".to_string();
        let diffs = replay_artifacts(
            &Session::new(),
            &[a, artifact()],
            &PolicyRegistry::with_builtins(),
            &ReplayOptions::default(),
        );
        assert_eq!(diffs.len(), 1, "the known artifact still replays");
    }

    /// The fidelity tolerance bands (ROADMAP "Fidelity"): a drifted diff
    /// passes a band wide enough for its drift and violates a tighter one;
    /// failed replays pass no band; the zero band is the exactness gate.
    #[test]
    fn tolerance_bands_pass_and_violate() {
        let mk = |recorded: EvalTotals, replayed: EvalTotals| ReplayDiff {
            label: "band-test".into(),
            scheduler: "SCAR".into(),
            recorded,
            replayed: Ok(replayed),
            identical_schedule: false,
            cost_evaluations: 0,
            cached_costs: 0,
        };
        let base = EvalTotals {
            latency_s: 1.0,
            energy_j: 2.0,
        };
        // +2% latency, energy unchanged → EDP drifts +2% as well
        let drifted = mk(
            base,
            EvalTotals {
                latency_s: 1.02,
                energy_j: 2.0,
            },
        );
        assert!(drifted.within(&ToleranceBand::uniform(0.05)), "band pass");
        assert!(
            !drifted.within(&ToleranceBand::uniform(0.01)),
            "band violation"
        );
        assert!(!drifted.within(&ToleranceBand::exact()));
        // downward drift is judged by magnitude (± band)
        let faster = mk(
            base,
            EvalTotals {
                latency_s: 0.98,
                energy_j: 2.0,
            },
        );
        assert!(faster.within(&ToleranceBand::uniform(0.05)));
        assert!(!faster.within(&ToleranceBand::uniform(0.01)));
        // drift-free totals pass every band, including the zero band —
        // even though `mk` sets identical_schedule: false, because bands
        // deliberately judge totals only (see ReplayDiff::within)
        let exact = mk(base, base);
        assert!(exact.within(&ToleranceBand::exact()));
        assert!(!exact.is_exact(), "is_exact still demands the placement");
        // a failed replay passes no band
        let failed = ReplayDiff {
            label: "failed".into(),
            scheduler: "SCAR".into(),
            recorded: base,
            replayed: Err(ScheduleError::NoFeasibleSchedule { window: 0 }),
            identical_schedule: false,
            cost_evaluations: 0,
            cached_costs: 0,
        };
        assert!(!failed.within(&ToleranceBand::uniform(1.0)));
        // the sweep-level filter surfaces exactly the violators
        let diffs = vec![drifted, exact];
        let violations = band_violations(&diffs, &ToleranceBand::uniform(0.01));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].label, "band-test");
        assert!(band_violations(&diffs, &ToleranceBand::uniform(0.05)).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative finite")]
    fn negative_tolerance_panics() {
        let _ = ToleranceBand::uniform(-0.1);
    }

    /// Regression: a bit-exact replay of a zero-total artifact (empty
    /// scenario, degenerate recording) used to compute `0/0 = NaN` drift,
    /// and NaN fails every `|drift| ≤ frac` comparison — so `within()`
    /// rejected the replay against *every* band including `exact()`.
    /// Equal totals are zero drift regardless of the denominator, and a
    /// genuine departure from a zero recording is infinite drift (outside
    /// every band), not NaN.
    #[test]
    fn zero_total_artifacts_replay_within_exact_band() {
        let zero = EvalTotals {
            latency_s: 0.0,
            energy_j: 0.0,
        };
        let mk = |replayed: EvalTotals| ReplayDiff {
            label: "zero-total".into(),
            scheduler: "SCAR".into(),
            recorded: zero,
            replayed: Ok(replayed),
            identical_schedule: true,
            cost_evaluations: 0,
            cached_costs: 0,
        };
        let exact = mk(zero);
        assert_eq!(exact.latency_drift(), Some(0.0));
        assert_eq!(exact.edp_drift(), Some(0.0));
        assert!(exact.within(&ToleranceBand::exact()));
        assert!(exact.is_exact());
        // a real departure from a zero recording violates every band
        let drifted = mk(EvalTotals {
            latency_s: 0.5,
            energy_j: 1.0,
        });
        assert_eq!(drifted.latency_drift(), Some(f64::INFINITY));
        assert!(!drifted.within(&ToleranceBand::uniform(1e9)));
    }

    /// An artifact recorded under a *non-default* scheduler configuration
    /// replays exactly because the configuration is recorded and
    /// reconstructed, not guessed from the registry defaults.
    #[test]
    fn recorded_scheduler_config_wins_over_replay_defaults() {
        let session = Session::new();
        let request =
            ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter))
                .budget(SearchBudget {
                    max_root_perms: 8,
                    max_paths_per_model: 4,
                    max_placements_per_window: 60,
                    max_candidates_per_window: 120,
                    ..SearchBudget::default()
                });
        let nondefault = ServeConfig {
            nsplits: 2,
            ..ServeConfig::default()
        };
        let scar = PolicyRegistry::with_builtins()
            .build("SCAR", &nondefault)
            .unwrap();
        let result = scar.schedule(&session, &request).unwrap();
        let artifact = ScheduleArtifact::of("nsplits-2", scar.as_ref(), request, result);
        assert_eq!(artifact.scheduler_config.nsplits, Some(2));

        // replay under *default* options: the recorded config must win
        let diffs = replay_artifacts(
            &Session::new(),
            std::slice::from_ref(&artifact),
            &PolicyRegistry::with_builtins(),
            &ReplayOptions::default(),
        );
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].is_exact(), "{}", diffs[0]);

        // control: strip the recorded config and the default-reconstructed
        // scheduler (nsplits = 1) schedules differently
        let mut stripped = artifact;
        stripped.scheduler_config = Default::default();
        let control = replay_artifacts(
            &Session::new(),
            &[stripped],
            &PolicyRegistry::with_builtins(),
            &ReplayOptions::default(),
        );
        assert!(
            !control[0].identical_schedule,
            "a 2-split schedule must not reconstruct from 1-split defaults"
        );
    }

    #[test]
    fn replay_file_roundtrips_through_disk() {
        let a = artifact();
        let path = std::env::temp_dir().join("scar_bench_replay_test.json");
        ScheduleArtifact::save_all(&path, std::slice::from_ref(&a)).unwrap();
        let diffs = replay_file(&Session::new(), &path, &ReplayOptions::default()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].is_exact());
        assert!(replay_file(
            &Session::new(),
            "/nonexistent/replay.json",
            &ReplayOptions::default()
        )
        .is_err());
    }
}
