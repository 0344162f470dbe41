//! The paper's baseline schedulers (§V-A): [`Standalone`] and the
//! NN-baton-like [`NnBaton`].
//!
//! * **Standalone** — every model runs end-to-end on its own chiplet; all
//!   chiplets share one dataflow. Models execute concurrently (one window).
//! * **NN-baton-like** \[68\] — a single-model scheduler: models execute
//!   *sequentially*, each from its starting chiplet, partitioning across
//!   chiplets only when a model's working set exceeds one chiplet's
//!   capacity (Figure 2's motivational baseline). Dataflow-agnostic.
//!
//! Both are first-class [`Scheduler`]s: serving loops and bench sweeps
//! drive them through the same [`Session`]-scoped request/response API as
//! [`Scar`](crate::Scar), sharing one cost database across calls.
//!
//! The Simba-like pipelining baseline needs no code of its own: it is the
//! SCAR search restricted to a homogeneous MCM template.

use crate::problem::{ScheduleError, ScheduleInstance, Segment, TimeWindow, WindowSchedule};
use crate::scar::ScheduleResult;
use crate::scheduler::{ScheduleRequest, Scheduler, Session};
use crate::tree;
use scar_workloads::DataType;
use std::hash::{Hash, Hasher};

/// The Standalone baseline: each model end-to-end on its own chiplet, all
/// models concurrent in a single time window.
///
/// Chiplets are assigned nearest-to-DRAM first (side columns), matching
/// the paper's off-chip-interface placement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Standalone;

impl Standalone {
    /// The Standalone scheduler (it has no configuration).
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for Standalone {
    fn name(&self) -> &str {
        "Standalone"
    }

    /// # Errors
    ///
    /// Returns [`ScheduleError::InsufficientChiplets`] when the scenario
    /// has more models than the MCM has chiplets.
    fn schedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
    ) -> Result<ScheduleResult, ScheduleError> {
        let scenario = &request.scenario;
        let mcm = &request.mcm;
        let m = scenario.models().len();
        let c = mcm.num_chiplets();
        if m > c {
            return Err(ScheduleError::InsufficientChiplets {
                needed: m,
                available: c,
            });
        }
        // prefer chiplets closest to an off-chip interface
        let mut order: Vec<usize> = (0..c).collect();
        order.sort_by_key(|&id| (mcm.nearest_interface(id).1, id));

        let layers: Vec<_> = scenario
            .models()
            .iter()
            .map(|sm| 0..sm.model.num_layers())
            .collect();
        let segments = (0..m)
            .map(|mi| {
                vec![Segment::new(
                    mi,
                    0,
                    scenario.models()[mi].model.num_layers(),
                )]
            })
            .collect();
        let placement = (0..m).map(|mi| vec![order[mi]]).collect();
        let schedule = ScheduleInstance {
            windows: vec![WindowSchedule {
                window: TimeWindow { index: 0, layers },
                segments,
                placement,
            }],
        };
        schedule.validate(scenario, c)?;

        let name = format!("Standalone ({})", mcm.chiplet(0).dataflow.short_name());
        Ok(ScheduleResult::from_instance(
            name,
            scenario,
            mcm,
            session.database(),
            request.metric.clone(),
            schedule,
            Vec::new(),
            request.budget.parallelism,
        ))
    }
}

/// The NN-baton-like baseline: single-model scheduling. Models run
/// sequentially (one time window each) from a fixed starting chiplet,
/// splitting across adjacent chiplets only when a model's largest
/// single-sample working set exceeds the chiplet L2
/// (`k = ceil(working_set / L2)` pipeline stages).
///
/// NN-baton is agnostic to the MCM's dataflow composition, so the starting
/// chiplet materially changes its results on heterogeneous packages
/// (Figure 2's B1) — construct via [`NnBaton::from_chiplet`] to model
/// that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NnBaton {
    /// The chiplet every model starts from.
    pub start: usize,
}

impl NnBaton {
    /// NN-baton starting from chiplet 0 (the default off-chip corner).
    pub fn new() -> Self {
        Self::default()
    }

    /// NN-baton with an explicit starting chiplet.
    pub fn from_chiplet(start: usize) -> Self {
        Self { start }
    }
}

impl Scheduler for NnBaton {
    fn name(&self) -> &str {
        "NN-baton"
    }

    /// # Errors
    ///
    /// Returns [`ScheduleError::NoFeasibleSchedule`] if a required
    /// partition cannot find an adjacent chiplet path (never happens on
    /// connected topologies with `k ≤ |C|`), and
    /// [`ScheduleError::InsufficientChiplets`] if a model needs more
    /// chiplets than the package has.
    ///
    /// # Panics
    ///
    /// Panics if the configured starting chiplet is out of range for the
    /// request's MCM.
    fn schedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
    ) -> Result<ScheduleResult, ScheduleError> {
        let scenario = &request.scenario;
        let mcm = &request.mcm;
        let start = self.start;
        let num_models = scenario.models().len();
        let c = mcm.num_chiplets();
        assert!(start < c, "starting chiplet out of range");
        let dt = DataType::Int8;

        let mut windows = Vec::with_capacity(num_models);
        for (mi, sm) in scenario.models().iter().enumerate() {
            let n = sm.model.num_layers();
            // capacity rule: partition when the largest single-sample
            // working set does not fit one chiplet
            let ws_max = sm
                .model
                .layers()
                .iter()
                .map(|l| l.weight_bytes(dt) + l.input_bytes(dt) + l.output_bytes(dt))
                .max()
                .unwrap_or(0);
            let l2 = mcm.chiplet(start).l2_bytes;
            let k = (ws_max.div_ceil(l2.max(1)) as usize).clamp(1, n);
            if k > c {
                return Err(ScheduleError::InsufficientChiplets {
                    needed: k,
                    available: c,
                });
            }
            let path = tree::dfs_paths(mcm, start, k, &vec![false; c], 1)
                .into_iter()
                .next()
                .ok_or(ScheduleError::NoFeasibleSchedule { window: mi })?;

            let mut layers = vec![0..0; num_models];
            layers[mi] = 0..n;
            let mut segments = vec![Vec::new(); num_models];
            segments[mi] = (0..k)
                .map(|i| Segment::new(mi, n * i / k, n * (i + 1) / k))
                .collect();
            let mut placement = vec![Vec::new(); num_models];
            placement[mi] = path;
            windows.push(WindowSchedule {
                window: TimeWindow { index: mi, layers },
                segments,
                placement,
            });
        }

        let schedule = ScheduleInstance { windows };
        schedule.validate(scenario, c)?;
        Ok(ScheduleResult::from_instance(
            "NN-baton",
            scenario,
            mcm,
            session.database(),
            request.metric.clone(),
            schedule,
            Vec::new(),
            request.budget.parallelism,
        ))
    }

    fn fingerprint_config(&self, mut state: &mut dyn Hasher) {
        self.start.hash(&mut state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OptMetric, Parallelism};
    use scar_maestro::Dataflow;
    use scar_mcm::templates::{het_2x2, simba_3x3, Profile};
    use scar_mcm::McmConfig;
    use scar_workloads::Scenario;

    fn edp_request(sc: &Scenario, mcm: &McmConfig) -> ScheduleRequest {
        ScheduleRequest::new(sc.clone(), mcm.clone())
            .metric(OptMetric::Edp)
            .parallelism(Parallelism::Serial)
    }

    #[test]
    fn standalone_uses_one_chiplet_per_model() {
        let sc = Scenario::datacenter(2);
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let r = Standalone::new()
            .schedule(&Session::new(), &edp_request(&sc, &mcm))
            .unwrap();
        let w = &r.schedule().windows[0];
        let mut used = std::collections::HashSet::new();
        for p in &w.placement {
            assert_eq!(p.len(), 1);
            assert!(used.insert(p[0]));
        }
        assert_eq!(r.strategy(), "Standalone (NVD)");
    }

    #[test]
    fn standalone_latency_is_max_of_models() {
        let sc = Scenario::datacenter(1);
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let r = Standalone::new()
            .schedule(&Session::new(), &edp_request(&sc, &mcm))
            .unwrap();
        let w = &r.windows()[0];
        let max_model = w.models.iter().map(|m| m.latency_s).fold(0.0f64, f64::max);
        assert!((r.total().latency_s - max_model).abs() < 1e-12);
    }

    #[test]
    fn nn_baton_runs_models_sequentially() {
        let sc = Scenario::datacenter(1);
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let session = Session::new();
        let req = edp_request(&sc, &mcm);
        let r = NnBaton::new().schedule(&session, &req).unwrap();
        assert_eq!(r.schedule().windows.len(), sc.models().len());
        // sequential latency = sum of window latencies > standalone's max
        let st = Standalone::new().schedule(&session, &req).unwrap();
        assert!(r.total().latency_s > st.total().latency_s);
    }

    #[test]
    fn nn_baton_partitions_oversized_models() {
        // U-Net's early 512×512 activations exceed a 10 MB L2 at batch 1
        let sc = Scenario::datacenter(4);
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let r = NnBaton::new()
            .schedule(&Session::new(), &edp_request(&sc, &mcm))
            .unwrap();
        let unet = sc
            .models()
            .iter()
            .position(|m| m.model.name() == "U-Net")
            .unwrap();
        let w = &r.schedule().windows[unet];
        assert!(
            w.placement[unet].len() > 1,
            "U-Net should be partitioned, got {:?}",
            w.placement[unet]
        );
    }

    #[test]
    fn too_many_models_for_standalone_errors() {
        let sc = Scenario::datacenter(5); // 6 models
        let mcm = het_2x2(Profile::Datacenter); // 4 chiplets
        assert!(matches!(
            Standalone::new().schedule(&Session::new(), &edp_request(&sc, &mcm)),
            Err(ScheduleError::InsufficientChiplets { .. })
        ));
    }

    #[test]
    fn baselines_validate() {
        let sc = Scenario::datacenter(2);
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::ShidiannaoLike);
        let session = Session::new();
        let req = edp_request(&sc, &mcm);
        let schedulers: [&dyn Scheduler; 2] = [&Standalone, &NnBaton { start: 0 }];
        for s in schedulers {
            let r = s.schedule(&session, &req).unwrap();
            r.schedule().validate(&sc, mcm.num_chiplets()).unwrap();
        }
    }

    #[test]
    fn shared_session_matches_fresh_database() {
        // the redesign's core promise: routing baselines through one shared
        // Session must not change any result relative to a fresh database
        // per call (costs are pure functions of (chiplet, layer, batch))
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let shared = Session::new();
        for scn in [1usize, 2, 4] {
            let sc = Scenario::datacenter(scn);
            let req = edp_request(&sc, &mcm);
            for s in [&Standalone::new() as &dyn Scheduler, &NnBaton::new()] {
                let warm = s.schedule(&shared, &req).unwrap();
                let cold = s.schedule(&Session::new(), &req).unwrap();
                assert_eq!(warm, cold, "Sc{scn} {} diverged", s.name());
            }
        }
        assert!(
            shared.cached_costs() > 0,
            "the shared session must have memoized costs"
        );
    }
}
