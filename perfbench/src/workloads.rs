//! The three workloads, each split into a set-up step (inputs built from
//! the seed, timed as `setup_s`) and a repeatable measured pass.
//!
//! A pass always does the same work for a given seed, so its virtual and
//! simulated outputs must be identical pass after pass — every pass after
//! the first is checked against the first. The first pass additionally
//! re-validates and re-evaluates every schedule a decorated scheduler
//! returned (the `eval.*` measurement).

use crate::decor::{AdmissionLog, SchedLog, TimedAdmission, TimedScheduler};
use crate::stats::{geomean, pct};
use scar_core::evaluate::Evaluator;
use scar_core::{
    EvoParams, OptMetric, Parallelism, Scar, ScheduleError, ScheduleRequest, ScheduleResult,
    Scheduler, SearchBudget, SearchKind, Session,
};
use scar_maestro::CostDatabase;
use scar_mcm::templates::{het_cross_6x6, het_sides_3x3, Profile};
use scar_mcm::{InterconnectSpec, McmConfig};
use scar_serve::{
    AdmissionKind, DispatchKind, FleetConfig, FleetReport, FleetSim, PolicyRegistry, ReplicaSpec,
    Request, ServeConfig, ServeReport, ServeSim, TrafficMix, TrafficShape,
};
use scar_telemetry::Telemetry;
use scar_workloads::Scenario;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Evaluation worker pool for every search: one thread. On the shared
/// two-vCPU host the benchmark is sized for, the two-worker pool (a worker
/// spawned per batch) took more host time than it saved, and a neighbour
/// taking either vCPU away stalled every batch.
pub const PARALLELISM: Parallelism = Parallelism::Serial;

/// Independent sub-runs of a `serve_overload` pass, each on a fresh
/// `ServeSim` with its own mix seed: the quality metrics average over four
/// arrival draws, while a pass stays short enough to repeat several times
/// in a run.
pub const SERVE_RUNS: usize = 4;

/// Virtual horizon of each `serve_overload` sub-run, seconds (~4k arrivals).
pub const SERVE_HORIZON_S: f64 = 30.0;

/// Virtual horizon of `fleet_affinity`, seconds (~337k arrivals): long
/// enough that the cold-cache searches are a small share of the pass, and
/// chosen so no seed puts the arrival list or a replica's share near a
/// power of two, where a vector's capacity doubling would swing
/// `peak_rss_mb` from seed to seed.
pub const FLEET_HORIZON_S: f64 = 2500.0;

/// Virtual horizon of `fleet_affinity` in the traced run, seconds (~68k
/// arrivals): the timeline of a full-horizon pass would hold about half a
/// million spans.
pub const FLEET_TRACE_HORIZON_S: f64 = 500.0;

/// Replicas in the `fleet_affinity` fleet.
pub const FLEET_SIZE: usize = 4;

/// What one measured pass produced. Times are host time unless marked
/// virtual or simulated.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of the measured calls.
    pub wall_s: f64,
    /// `wall_s` cut into pieces that every pass repeats identically: each
    /// serving run cut at every scheduler-call entry and exit
    /// (`serve_overload`), each schedule call (`paper_search`), the whole
    /// fleet run (`fleet_affinity`).
    pub segment_s: Vec<f64>,
    /// Offered arrivals (serving) or schedule requests (`paper_search`).
    pub requests: u64,
    /// Schedules issued: serving rounds, or schedule calls.
    pub schedules: u64,
    /// Serving rounds (0 for `paper_search`, which does not serve).
    pub rounds: u64,
    /// Arrivals turned away by admission control.
    pub rejected: u64,
    /// Geometric mean of the simulated EDPs, J·s.
    pub edp_geomean: f64,
    /// Share of requests served in time (see `layers.json`).
    pub on_time_rate: f64,
    /// Median request latency, ms: virtual for the serving workloads,
    /// the returned schedules' simulated latency for `paper_search`.
    pub latency_p50_ms: f64,
    /// 99th-percentile request latency, ms (as `latency_p50_ms`).
    pub latency_p99_ms: f64,
    /// Operations attempted: schedule calls or offered arrivals.
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// MAESTRO cost-model evaluations the pass performed.
    pub cost_evaluations: u64,
    /// Schedule-cache hits.
    pub cache_hits: u64,
    /// Schedule-cache misses.
    pub cache_misses: u64,
    /// Fleet arrivals routed away from their home replica.
    pub migrations: u64,
}

impl Pass {
    /// A pass whose serving loop stopped on a `ScheduleError`: every
    /// offered arrival failed.
    fn failed(offered: usize) -> Self {
        Pass {
            attempted: offered as u64,
            failed: offered as u64,
            ..Pass::default()
        }
    }

    /// Schedule-cache hits over probes (0 without a cache).
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

/// When one measured call started and ended.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Just before the call.
    pub start: Instant,
    /// Just after it returned.
    pub end: Instant,
}

impl Span {
    /// Runs `f`, returning its result and its span.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Self) {
        let start = Instant::now();
        let out = f();
        (
            out,
            Span {
                start,
                end: Instant::now(),
            },
        )
    }

    /// Host seconds of the span.
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Host seconds of the pieces the span falls into when cut at every
    /// one of `marks`, which lie inside it in order.
    pub fn cut(&self, marks: &[Instant]) -> Vec<f64> {
        let points: Vec<Instant> = std::iter::once(self.start)
            .chain(marks.iter().copied())
            .chain(std::iter::once(self.end))
            .collect();
        points
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }
}

/// Layer observations the workloads collect from outside the program.
#[derive(Debug, Default)]
pub struct Logs {
    /// Decorated scheduler calls.
    pub sched: Rc<RefCell<SchedLog>>,
    /// Decorated admission decisions.
    pub admission: Rc<RefCell<AdmissionLog>>,
    /// `Evaluator::evaluate_schedule` times of the re-evaluated schedules, µs.
    pub eval_us: Vec<f64>,
    /// Windows those schedules hold.
    pub eval_windows: u64,
}

impl Logs {
    /// Re-checks one returned schedule: it must pass
    /// `ScheduleInstance::validate` and re-evaluate to exactly its reported
    /// totals. The re-evaluation is timed into `eval_us`.
    fn verify(
        &mut self,
        scenario: &Scenario,
        mcm: &McmConfig,
        db: &CostDatabase,
        metric: &OptMetric,
        result: &ScheduleResult,
    ) -> bool {
        if result
            .schedule()
            .validate(scenario, mcm.num_chiplets())
            .is_err()
        {
            return false;
        }
        let evaluator = Evaluator::with_metric(scenario, mcm, db, metric.clone());
        let t0 = Instant::now();
        let (totals, windows) = evaluator.evaluate_schedule(result.schedule());
        self.eval_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.eval_windows += windows.len() as u64;
        totals == result.total()
    }

    /// Verifies every schedule the decorated scheduler recorded, then
    /// stops recording. Returns how many failed.
    fn verify_recorded(&mut self, mcm: &McmConfig, db: &CostDatabase, metric: &OptMetric) -> u64 {
        let returned = {
            let mut log = self.sched.borrow_mut();
            log.record = false;
            std::mem::take(&mut log.returned)
        };
        returned
            .iter()
            .filter(|(scenario, result)| !self.verify(scenario, mcm, db, metric, result))
            .count() as u64
    }
}

/// A workload after set-up: repeatable measured passes plus the logs the
/// decorators fill.
pub trait Bench {
    /// Runs one measured pass with `tel` threaded through the program.
    fn pass(&mut self, tel: &Telemetry) -> Pass;
    /// The decorator and re-evaluation logs.
    fn logs(&mut self) -> &mut Logs;
    /// The span every phase-attributed span of a pass nests under.
    fn trace_root(&self) -> &'static str;
}

/// Builds a workload's inputs from `seed`, for the traced run when
/// `traced` is set.
pub fn setup(workload: crate::args::Workload, seed: u64, traced: bool) -> Box<dyn Bench> {
    use crate::args::Workload as W;
    match workload {
        W::PaperSearch => Box::new(PaperSearch::new(seed)),
        W::ServeOverload => Box::new(ServeOverload::new(seed)),
        W::FleetAffinity => Box::new(FleetAffinity::new(
            seed,
            if traced {
                FLEET_TRACE_HORIZON_S
            } else {
                FLEET_HORIZON_S
            },
        )),
    }
}

/// One `paper_search` request: a paper scenario on one MCM, searched by
/// brute force (3×3) or evolutionary search (6×6).
#[derive(Debug, Clone)]
pub struct PaperRequest {
    /// The request as issued.
    pub request: ScheduleRequest,
    /// The per-window search kind.
    pub search: SearchKind,
}

impl PaperRequest {
    /// The cold SCAR scheduler this request is searched with.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        Box::new(Scar::builder().search(self.search.clone()).build())
    }
}

/// The twenty `paper_search` requests: Sc1–5 under the datacenter profile
/// and Sc6–10 under the AR/VR profile, each on Het-Sides 3×3 (brute
/// force) and Het-Cross 6×6 (evolutionary), EDP metric, default budgets
/// with the search seed taken from `seed`.
pub fn paper_requests(seed: u64) -> Vec<PaperRequest> {
    let budget = SearchBudget {
        seed,
        parallelism: PARALLELISM,
        ..SearchBudget::default()
    };
    let mut out = Vec::with_capacity(20);
    for id in 1..=10 {
        let profile = if id <= 5 {
            Profile::Datacenter
        } else {
            Profile::ArVr
        };
        let scenario = Scenario::by_id(id);
        for (mcm, search) in [
            (het_sides_3x3(profile), SearchKind::BruteForce),
            (
                het_cross_6x6(profile),
                SearchKind::Evolutionary(EvoParams::default()),
            ),
        ] {
            out.push(PaperRequest {
                request: ScheduleRequest::new(scenario.clone(), mcm)
                    .metric(OptMetric::Edp)
                    .budget(budget.clone()),
                search,
            });
        }
    }
    out
}

/// `paper_search`: twenty closed-loop `Scheduler::schedule` calls, each on
/// a fresh `Session` and a fresh scheduler.
pub struct PaperSearch {
    requests: Vec<PaperRequest>,
    first: Option<Vec<ScheduleResult>>,
    logs: Logs,
}

impl PaperSearch {
    fn new(seed: u64) -> Self {
        Self {
            requests: paper_requests(seed),
            first: None,
            logs: Logs::default(),
        }
    }
}

impl Bench for PaperSearch {
    fn pass(&mut self, tel: &Telemetry) -> Pass {
        let check = self.first.is_none();
        let mut pass = Pass::default();
        let mut edps = Vec::with_capacity(self.requests.len());
        let mut latencies_ms = Vec::with_capacity(self.requests.len());
        let mut results = Vec::with_capacity(self.requests.len());
        for req in &self.requests {
            let session = Session::new().with_telemetry(tel.clone());
            let scheduler = TimedScheduler::new(req.scheduler(), Rc::clone(&self.logs.sched));
            let (out, took) = Span::measure(|| scheduler.schedule(&session, &req.request));
            pass.wall_s += took.wall_s();
            pass.segment_s.push(took.wall_s());
            pass.attempted += 1;
            pass.cost_evaluations += session.cost_evaluations();
            let Ok(result) = out else {
                pass.failed += 1;
                continue;
            };
            let ok = if check {
                let r = &req.request;
                self.logs
                    .verify(&r.scenario, &r.mcm, session.database(), &r.metric, &result)
            } else {
                true
            };
            pass.failed += u64::from(!ok);
            edps.push(result.total().edp());
            latencies_ms.push(result.total().latency_s * 1e3);
            results.push(result);
        }
        match &self.first {
            None => self.first = Some(results),
            // every pass searches the same requests: same schedules
            Some(first) if *first != results => pass.failed += pass.attempted,
            Some(_) => {}
        }
        let served = edps.len() as u64;
        pass.requests = pass.attempted;
        pass.schedules = served;
        pass.edp_geomean = geomean(&edps);
        // no paper request carries a deadline: a request is in time when
        // it was scheduled
        pass.on_time_rate = served as f64 / pass.attempted as f64;
        pass.latency_p50_ms = pct(&latencies_ms, 50.0);
        pass.latency_p99_ms = pct(&latencies_ms, 99.0);
        pass
    }

    fn logs(&mut self) -> &mut Logs {
        &mut self.logs
    }

    fn trace_root(&self) -> &'static str {
        "schedule.run"
    }
}

/// The serving configuration of `serve_overload`: preemption on, two
/// window splits, deadline-feasible admission.
pub fn overload_config() -> ServeConfig {
    ServeConfig {
        preemption: true,
        nsplits: 2,
        admission: AdmissionKind::DeadlineFeasible,
        parallelism: PARALLELISM,
        ..ServeConfig::default()
    }
}

/// The burst-reshaped AR/VR frame mix both serving workloads draw from.
pub fn burst_mix(seed: u64) -> TrafficMix {
    TrafficMix::arvr(seed).reshaped(TrafficShape::Burst)
}

/// Serves `arrivals` on a fresh `ServeSim` over `mcm`, returning the
/// report, the time the run took, and the simulator. With `logs`,
/// the scheduler and admission policy are wrapped in the timing
/// decorators.
///
/// # Errors
///
/// The `ScheduleError` that stopped the serving loop.
pub fn serve<'a>(
    mcm: &'a McmConfig,
    mix: &TrafficMix,
    arrivals: Vec<Request>,
    cfg: ServeConfig,
    logs: Option<&Logs>,
) -> Result<(ServeReport, Span, ServeSim<'a>), ScheduleError> {
    let scheduler = PolicyRegistry::with_builtins()
        .build("SCAR", &cfg)
        .expect("SCAR is a built-in policy");
    let admission = cfg.admission.policy();
    let mut sim = match logs {
        Some(logs) => ServeSim::with_scheduler(
            mcm,
            Box::new(TimedScheduler::new(scheduler, Rc::clone(&logs.sched))),
            cfg,
        )
        .with_admission(Box::new(TimedAdmission::new(
            admission,
            Rc::clone(&logs.admission),
        ))),
        None => ServeSim::with_scheduler(mcm, scheduler, cfg),
    };
    let (report, took) = Span::measure(|| sim.run_arrivals(mix, arrivals));
    Ok((report?, took, sim))
}

/// The serving metrics shared by both serving workloads; `segment_s` holds
/// the pieces of the pass's serving calls.
fn serving_pass(
    segment_s: Vec<f64>,
    offered: usize,
    rejected: usize,
    deadline_misses: usize,
    rounds: u64,
    edps: &[f64],
) -> Pass {
    let late = (deadline_misses + rejected) as f64 / offered as f64;
    Pass {
        wall_s: segment_s.iter().sum(),
        segment_s,
        requests: offered as u64,
        schedules: rounds,
        rounds,
        rejected: rejected as u64,
        edp_geomean: geomean(edps),
        on_time_rate: 1.0 - late,
        attempted: offered as u64,
        ..Pass::default()
    }
}

/// Completion-weighted mean of the reports' latency percentile `pick`,
/// ms: separate runs and replicas keep no merged latency distribution.
fn weighted_latency_ms(reports: &[&ServeReport], pick: fn(&ServeReport) -> f64) -> f64 {
    let done: usize = reports.iter().map(|r| r.completed).sum();
    reports
        .iter()
        .map(|r| pick(r) * r.completed as f64)
        .sum::<f64>()
        / done.max(1) as f64
        * 1e3
}

/// `serve_overload`: the burst AR/VR mix on one Het-Sides 3×3 `ServeSim`,
/// served as [`SERVE_RUNS`] sub-runs with mix seeds derived from the seed.
pub struct ServeOverload {
    mcm: McmConfig,
    runs: Vec<(TrafficMix, Vec<Request>)>,
    first: Option<Vec<ServeReport>>,
    logs: Logs,
}

impl ServeOverload {
    fn new(seed: u64) -> Self {
        let runs = (0..SERVE_RUNS as u64)
            .map(|k| {
                let mix = burst_mix(seed.wrapping_mul(SERVE_RUNS as u64).wrapping_add(k));
                let arrivals = mix.arrivals(SERVE_HORIZON_S);
                (mix, arrivals)
            })
            .collect();
        Self {
            mcm: het_sides_3x3(Profile::ArVr),
            runs,
            first: None,
            logs: Logs::default(),
        }
    }
}

impl Bench for ServeOverload {
    fn pass(&mut self, tel: &Telemetry) -> Pass {
        let check = self.first.is_none();
        let mut reports = Vec::with_capacity(self.runs.len());
        let mut segment_s = Vec::new();
        let mut failed = 0;
        for (mix, arrivals) in &self.runs {
            {
                let mut log = self.logs.sched.borrow_mut();
                log.record = check;
                log.marks.clear();
            }
            let cfg = ServeConfig {
                telemetry: tel.clone(),
                ..overload_config()
            };
            let metric = cfg.metric.clone();
            let Ok((report, t, sim)) =
                serve(&self.mcm, mix, arrivals.clone(), cfg, Some(&self.logs))
            else {
                return Pass::failed(self.runs.iter().map(|(_, a)| a.len()).sum());
            };
            if report.offered != arrivals.len()
                || report.offered != report.completed + report.rejected
            {
                failed += report.offered as u64;
            }
            if check {
                failed += self
                    .logs
                    .verify_recorded(&self.mcm, sim.session().database(), &metric);
            }
            segment_s.extend(t.cut(&self.logs.sched.borrow().marks));
            reports.push(report);
        }
        let all: Vec<&ServeReport> = reports.iter().collect();
        let sum = |f: fn(&ServeReport) -> usize| all.iter().map(|r| f(r)).sum::<usize>();
        let mut pass = serving_pass(
            segment_s,
            sum(|r| r.offered),
            sum(|r| r.rejected),
            sum(|r| r.deadline_misses),
            sum(|r| r.windows_scheduled) as u64,
            &all.iter()
                .map(|r| r.energy_j * r.makespan_s)
                .collect::<Vec<_>>(),
        );
        pass.failed = failed;
        pass.latency_p50_ms = weighted_latency_ms(&all, |r| r.latency.p50_s);
        pass.latency_p99_ms = weighted_latency_ms(&all, |r| r.latency.p99_s);
        pass.cost_evaluations = all.iter().map(|r| r.cost_evaluations).sum();
        pass.cache_hits = all.iter().map(|r| r.cache.hits).sum();
        pass.cache_misses = all.iter().map(|r| r.cache.misses).sum();
        match &self.first {
            None => self.first = Some(reports),
            // every pass serves the same arrivals: same reports
            Some(first)
                if first.len() != reports.len()
                    || first
                        .iter()
                        .zip(&reports)
                        .any(|(a, b)| a.to_string() != b.to_string() || a != b) =>
            {
                pass.failed += pass.attempted;
            }
            Some(_) => {}
        }
        pass
    }

    fn logs(&mut self) -> &mut Logs {
        &mut self.logs
    }

    fn trace_root(&self) -> &'static str {
        "serve.run"
    }
}

/// `fleet_affinity`: the burst AR/VR mix across the heterogeneous 4-replica
/// fleet (the four 3×3 strategies), cache-affinity dispatch, `nop` fabric.
pub struct FleetAffinity {
    replicas: Vec<ReplicaSpec>,
    dispatch: DispatchKind,
    mix: TrafficMix,
    horizon_s: f64,
    offered: usize,
    first: Option<FleetReport>,
    logs: Logs,
}

impl FleetAffinity {
    fn new(seed: u64, horizon_s: f64) -> Self {
        let base = ServeConfig {
            parallelism: PARALLELISM,
            ..ServeConfig::default()
        };
        let replicas = ReplicaSpec::heterogeneous(FLEET_SIZE, Profile::ArVr, base)
            .into_iter()
            .map(|mut r| {
                r.mcm = r.mcm.with_interconnect(Some(InterconnectSpec::nop()));
                r
            })
            .collect();
        let mix = burst_mix(seed);
        // the fleet draws the same arrivals itself; counting them here is
        // what the conservation check compares its `offered` against
        let offered = mix.arrivals(horizon_s).len();
        Self {
            replicas,
            dispatch: DispatchKind::parse("affinity").expect("a built-in dispatch spec"),
            mix,
            horizon_s,
            offered,
            first: None,
            logs: Logs::default(),
        }
    }
}

impl Bench for FleetAffinity {
    fn pass(&mut self, tel: &Telemetry) -> Pass {
        let mut fleet = FleetSim::new(
            self.replicas.clone(),
            FleetConfig {
                dispatch: self.dispatch.clone(),
                telemetry: tel.clone(),
                ..FleetConfig::default()
            },
        );
        let (report, took) = Span::measure(|| fleet.run(&self.mix, self.horizon_s));
        let Ok(report) = report else {
            return Pass::failed(self.offered);
        };
        let edps: Vec<f64> = report
            .replicas
            .iter()
            .map(|r| r.report.energy_j * r.report.makespan_s)
            .collect();
        let rounds = report
            .replicas
            .iter()
            .map(|r| r.report.windows_scheduled as u64)
            .sum();
        let mut pass = serving_pass(
            vec![took.wall_s()],
            report.offered,
            report.rejected,
            report.deadline_misses,
            rounds,
            &edps,
        );
        let replicas: Vec<&ServeReport> = report.replicas.iter().map(|r| &r.report).collect();
        pass.latency_p50_ms = weighted_latency_ms(&replicas, |r| r.latency.p50_s);
        pass.latency_p99_ms = weighted_latency_ms(&replicas, |r| r.latency.p99_s);
        pass.cost_evaluations = report.cost_evaluations;
        pass.cache_hits = report.cache.hits;
        pass.cache_misses = report.cache.misses;
        pass.migrations = report.migrations;
        let routed: usize = report.replicas.iter().map(|r| r.routed).sum();
        let fabric_ok = report.fabric.as_ref().is_some_and(|f| {
            f.migrations == report.replicas.iter().map(|r| r.migrated_in).sum::<u64>()
        });
        if report.offered != self.offered
            || report.offered != report.completed + report.rejected
            || routed != report.offered
            || !fabric_ok
        {
            pass.failed += pass.attempted;
        }
        match &self.first {
            None => self.first = Some(report),
            Some(first) if first.to_string() != report.to_string() || *first != report => {
                pass.failed += pass.attempted;
            }
            Some(_) => {}
        }
        pass
    }

    fn logs(&mut self) -> &mut Logs {
        &mut self.logs
    }

    fn trace_root(&self) -> &'static str {
        "serve.run"
    }
}
