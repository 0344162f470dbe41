//! The scheduler zoo's core member: NSGA-II multi-objective selection
//! plugged into the SCAR pipeline, behind the [`Scheduler`] trait.
//!
//! The zoo's other SCAR variants are not types at all but named
//! [`Scar`] configurations (a report name plus structural knobs; see
//! `scar_serve::zoo`). [`NsgaScar`] differs in *which candidate wins* a
//! window, so it supplies only that rule and runs SCAR's one pipeline.
//! Everything the trait integrates — session cost-database sharing,
//! fingerprint-keyed serve caching, artifact recording
//! ([`Scheduler::config`]) and registry-driven replay — comes for free,
//! and so does the determinism contract: the result is a pure function of
//! `(request, config)` and bit-identical across `Serial`/`Fixed(N)`
//! evaluation parallelism.
//!
//! The serving-side catalog (doc cards, registry wiring, config-file
//! front end) lives in `scar_serve::zoo`; DESIGN.md §14 renders the
//! same catalog as a table.

use crate::problem::{OptMetric, ScheduleError, ScheduleInstance, TimeWindow};
use crate::scar::{Scar, ScheduleResult};
use crate::scheduler::{ScheduleRequest, Scheduler, SchedulerConfig, Session};
use crate::search::engine::ScoredCandidate;
use crate::search::{self, nsga, SearchCtx, SearchKind, WindowSearchResult};
use crate::WindowEval;
use rand::rngs::StdRng;
use std::hash::Hasher;

/// NSGA-II Pareto-front multi-objective scheduler.
///
/// Runs the SCAR pipeline (MCM-Reconfig → PROV → SEG → SCHED) of the
/// wrapped [`Scar`] — its structural knobs: window splits, packing,
/// provisioning, search driver — but replaces each window's scalar-best
/// selection with NSGA-II selection over the window's **full** evaluated
/// candidate cloud: candidates are scored on three minimized objectives —
/// latency, energy, and a fairness/violation score (the spread between
/// the slowest and fastest co-resident model, plus any constrained-latency
/// violation) — then non-dominated sorted, and the winner is the knee of
/// front 0 under the request metric ([`nsga::knee_point`]: minimal metric
/// score, ties to the larger crowding distance, final ties to generation
/// order).
///
/// Constraint handling follows the standard NSGA-II
/// constraint-domination rule: when any candidate satisfies the window's
/// latency bound, selection is restricted to the feasible subset;
/// an all-infeasible cloud competes on (objectives + violation).
///
/// Preemptions take the trait default (a full NSGA search).
///
/// Deterministic and `Serial ≡ Fixed(N)` bit-identical: the cloud
/// arrives in generation order regardless of evaluation parallelism, and
/// every tie in sorting, crowding, and knee selection breaks toward the
/// earliest-generated candidate.
#[derive(Debug)]
pub struct NsgaScar {
    scar: Scar,
}

impl Default for NsgaScar {
    fn default() -> Self {
        Self::new(Scar::with_defaults())
    }
}

impl NsgaScar {
    /// NSGA-II selection over `scar`'s pipeline and structural knobs.
    pub fn new(scar: Scar) -> Self {
        Self { scar }
    }
}

impl Scheduler for NsgaScar {
    fn name(&self) -> &str {
        "NSGA-SCAR"
    }

    fn schedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.scar.schedule_with(session, request, nsga_window)
    }

    fn supports_reschedule(&self) -> bool {
        true
    }

    /// SCAR's incremental fast path: re-evaluate the prior instance as a
    /// seeded candidate (search-free, so no NSGA selection is involved);
    /// `None` when the seed no longer validates.
    fn reschedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        seed: &ScheduleInstance,
    ) -> Option<ScheduleResult> {
        self.scar.reschedule(session, request, seed)
    }

    fn config(&self) -> SchedulerConfig {
        self.scar.config()
    }

    fn fingerprint_config(&self, state: &mut dyn Hasher) {
        self.scar.fingerprint_config(state);
    }
}

/// NSGA-SCAR's window step: drains the window's whole candidate cloud and
/// picks the winner with [`nsga_select`].
fn nsga_window(
    ctx: &SearchCtx<'_>,
    window: &TimeWindow,
    allocations: &[Vec<usize>],
    kind: &SearchKind,
    rng: &mut StdRng,
) -> Option<WindowSearchResult> {
    let mut cloud = Vec::new();
    search::drain_window(ctx, window, allocations, kind, rng, |c| cloud.push(c));
    if cloud.is_empty() {
        return None;
    }
    let winner = {
        let _g = ctx
            .tel
            .span("schedule.nsga")
            .arg("window", window.index)
            .arg("candidates", cloud.len());
        nsga_select(&cloud, ctx.metric)
    };
    let candidates = cloud.iter().map(|c| c.eval.totals()).collect();
    let ScoredCandidate { schedule, eval, .. } = cloud.swap_remove(winner);
    Some(WindowSearchResult {
        best: schedule,
        eval,
        candidates,
    })
}

/// NSGA-II selection over one window's scored cloud (see [`NsgaScar`]):
/// returns the winning index into `cloud`.
///
/// Falls back to the engine's own rule — minimal scalar score, earliest
/// generation on ties — if non-dominated sorting yields no front (every
/// candidate carried a NaN objective), so a degenerate cloud still
/// selects exactly what single-objective SCAR would.
fn nsga_select(cloud: &[ScoredCandidate], window_metric: &OptMetric) -> usize {
    let bound = match window_metric {
        OptMetric::ConstrainedEdp { max_latency_s } => Some(*max_latency_s),
        _ => None,
    };
    let violations: Vec<f64> = cloud
        .iter()
        .map(|c| {
            bound
                .map(|b| (c.eval.totals().latency_s - b).max(0.0))
                .unwrap_or(0.0)
        })
        .collect();
    // constraint domination: feasible candidates (violation 0) compete
    // among themselves; only an all-infeasible cloud lets violators in
    let eligible: Vec<usize> = if violations.contains(&0.0) {
        (0..cloud.len()).filter(|&i| violations[i] == 0.0).collect()
    } else {
        (0..cloud.len()).collect()
    };
    let objectives: Vec<Vec<f64>> = eligible
        .iter()
        .map(|&i| {
            let t = cloud[i].eval.totals();
            vec![
                t.latency_s,
                t.energy_j,
                fairness_spread(&cloud[i].eval) + violations[i],
            ]
        })
        .collect();
    let fronts = nsga::non_dominated_sort(&objectives);
    let winner = fronts.first().and_then(|front0| {
        let crowding = nsga::crowding_distance(&objectives, front0);
        let scalar: Vec<f64> = eligible.iter().map(|&i| cloud[i].score).collect();
        nsga::knee_point(front0, &scalar, &crowding)
    });
    match winner {
        Some(local) => eligible[local],
        None => cloud
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| a.score.total_cmp(&b.score).then(ia.cmp(ib)))
            .map(|(i, _)| i)
            .unwrap_or(0),
    }
}

/// The fairness objective: the straggler spread of a window — the gap in
/// seconds between the slowest and fastest co-resident model. `0.0` for
/// a window serving at most one model (nothing to be unfair between). A
/// NaN per-model latency propagates to NaN, excluding the candidate from
/// every front (an evaluation failure is not a fair schedule).
fn fairness_spread(eval: &WindowEval) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut n = 0usize;
    for per in eval.per_model.iter().flatten() {
        if per.latency_s.is_nan() {
            return f64::NAN;
        }
        lo = lo.min(per.latency_s);
        hi = hi.max(per.latency_s);
        n += 1;
    }
    if n < 2 {
        0.0
    } else {
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pareto_front, SearchBudget};
    use scar_mcm::templates::{het_sides_3x3, Profile};
    use scar_workloads::Scenario;

    fn small_budget() -> SearchBudget {
        SearchBudget {
            max_root_perms: 8,
            max_paths_per_model: 4,
            max_placements_per_window: 60,
            max_candidates_per_window: 120,
            ..SearchBudget::default()
        }
    }

    fn request() -> ScheduleRequest {
        ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter))
            .budget(small_budget())
    }

    #[test]
    fn nsga_scar_schedules_and_its_front_is_nondominated() {
        let session = Session::new();
        let s = NsgaScar::new(Scar::builder().nsplits(1).build());
        let r = s.schedule(&session, &request()).expect("schedules");
        assert!(!r.candidates().is_empty(), "cloud recorded");
        let front = r.pareto_front();
        assert!(!front.is_empty());
        for (ai, a) in front.iter().enumerate() {
            for b in &front[ai + 1..] {
                let a_dom = a.latency_s <= b.latency_s && a.energy_j <= b.energy_j;
                let b_dom = b.latency_s <= a.latency_s && b.energy_j <= a.energy_j;
                assert!(
                    !(a_dom && (a.latency_s < b.latency_s || a.energy_j < b.energy_j))
                        && !(b_dom && (b.latency_s < a.latency_s || b.energy_j < a.energy_j)),
                    "front members must be mutually non-dominated"
                );
            }
        }
        assert_eq!(front, pareto_front(r.candidates()));
    }

    #[test]
    fn nsga_scar_is_deterministic_across_parallelism() {
        use crate::Parallelism;
        let run = |p: Parallelism| {
            let session = Session::new();
            let mut req = request();
            req.budget.parallelism = p;
            NsgaScar::new(Scar::builder().nsplits(1).build())
                .schedule(&session, &req)
                .expect("schedules")
        };
        let serial = run(Parallelism::Serial);
        let fixed = run(Parallelism::Fixed(4));
        assert_eq!(serial.schedule(), fixed.schedule());
        assert_eq!(serial.total(), fixed.total());
        assert_eq!(serial.candidates(), fixed.candidates());
    }

    #[test]
    fn nsga_select_prefers_feasible_then_knee() {
        // Synthetic selection check without the pipeline: feasible
        // candidates gate out violators, then the metric knee wins.
        let cand = |lat: f64, en: f64, score: f64| ScoredCandidate {
            schedule: crate::WindowSchedule {
                window: crate::TimeWindow {
                    index: 0,
                    layers: vec![],
                },
                segments: vec![],
                placement: vec![],
            },
            eval: WindowEval {
                latency_s: lat,
                energy_j: en,
                per_model: vec![],
            },
            score,
        };
        let metric = OptMetric::ConstrainedEdp { max_latency_s: 2.0 };
        // 0: violates the bound with a great score; 1 and 2 feasible
        let cloud = vec![
            cand(3.0, 0.1, 0.01),
            cand(1.5, 2.0, 3.0),
            cand(1.0, 3.0, 3.0),
        ];
        let w = nsga_select(&cloud, &metric);
        assert_ne!(w, 0, "violator must not win while feasible points exist");
        // scalar tie between 1 and 2 → both boundary (infinite crowding)
        // → earliest generation wins
        assert_eq!(w, 1);
    }
}
