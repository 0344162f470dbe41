//! Delegating timing decorators: a [`Scheduler`] and an
//! [`AdmissionPolicy`] that forward every trait method to the wrapped
//! value and time the calls that do work.
//!
//! The serving loop keys its schedule cache on the scheduler's name and
//! configuration fingerprint and on the admission policy's name and
//! fingerprint, so the decorators forward those too: a decorated run makes
//! exactly the decisions of an undecorated one (`tests/decorators.rs`
//! checks the rendered reports byte for byte).

use scar_core::{
    ScheduleError, ScheduleInstance, ScheduleRequest, ScheduleResult, Scheduler, SchedulerConfig,
    Session,
};
use scar_serve::{AdmissionContext, AdmissionPolicy, Request};
use scar_workloads::Scenario;
use std::cell::RefCell;
use std::hash::Hasher;
use std::rc::Rc;
use std::time::Instant;

/// Host time of every scheduler call, by entry point.
#[derive(Debug, Default)]
pub struct SchedLog {
    /// `Scheduler::schedule` call times, seconds.
    pub full_s: Vec<f64>,
    /// `Scheduler::preempt` call times, seconds.
    pub preempt_s: Vec<f64>,
    /// `Scheduler::reschedule` call times, seconds (answered or declined).
    pub reschedule_s: Vec<f64>,
    /// Candidates each returned schedule evaluated during its search.
    pub candidates: Vec<usize>,
    /// When set, every returned schedule is kept (with its scenario) for
    /// the correctness check after the run.
    pub record: bool,
    /// The kept `(scenario, result)` pairs.
    pub returned: Vec<(Scenario, ScheduleResult)>,
    /// Entry and exit instant of every call, in call order.
    pub marks: Vec<Instant>,
}

impl SchedLog {
    /// Host seconds spent inside scheduler calls.
    pub fn total_s(&self) -> f64 {
        self.full_s
            .iter()
            .chain(&self.preempt_s)
            .chain(&self.reschedule_s)
            .sum()
    }

    fn note(
        &mut self,
        call: [Instant; 2],
        request: &ScheduleRequest,
        result: Option<&ScheduleResult>,
    ) {
        self.marks.extend(call);
        let Some(result) = result else { return };
        self.candidates.push(result.candidates().len());
        if self.record {
            self.returned
                .push((request.scenario.clone(), result.clone()));
        }
    }
}

/// A [`Scheduler`] that times every call into the scheduler it wraps.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    log: Rc<RefCell<SchedLog>>,
}

impl TimedScheduler {
    /// Wraps `inner`, appending call times to `log`.
    pub fn new(inner: Box<dyn Scheduler>, log: Rc<RefCell<SchedLog>>) -> Self {
        Self { inner, log }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
    ) -> Result<ScheduleResult, ScheduleError> {
        let t0 = Instant::now();
        let out = self.inner.schedule(session, request);
        let t1 = Instant::now();
        let mut log = self.log.borrow_mut();
        log.full_s.push((t1 - t0).as_secs_f64());
        log.note([t0, t1], request, out.as_ref().ok());
        out
    }

    fn supports_reschedule(&self) -> bool {
        self.inner.supports_reschedule()
    }

    fn reschedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        seed: &ScheduleInstance,
    ) -> Option<ScheduleResult> {
        let t0 = Instant::now();
        let out = self.inner.reschedule(session, request, seed);
        let t1 = Instant::now();
        let mut log = self.log.borrow_mut();
        log.reschedule_s.push((t1 - t0).as_secs_f64());
        log.note([t0, t1], request, out.as_ref());
        out
    }

    fn preempt(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        in_flight: &ScheduleInstance,
    ) -> Result<ScheduleResult, ScheduleError> {
        let t0 = Instant::now();
        let out = self.inner.preempt(session, request, in_flight);
        let t1 = Instant::now();
        let mut log = self.log.borrow_mut();
        log.preempt_s.push((t1 - t0).as_secs_f64());
        log.note([t0, t1], request, out.as_ref().ok());
        out
    }

    fn preempt_fingerprint(
        &self,
        request: &ScheduleRequest,
        in_flight: &ScheduleInstance,
        state: &mut dyn Hasher,
    ) {
        self.inner.preempt_fingerprint(request, in_flight, state);
    }

    fn fingerprint_config(&self, state: &mut dyn Hasher) {
        self.inner.fingerprint_config(state);
    }

    fn config(&self) -> SchedulerConfig {
        self.inner.config()
    }
}

/// Host time of every admission decision.
#[derive(Debug, Default)]
pub struct AdmissionLog {
    /// `AdmissionPolicy::admit` call times, nanoseconds.
    pub decide_ns: Vec<f64>,
}

/// An [`AdmissionPolicy`] that times every decision of the policy it wraps.
pub struct TimedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    log: Rc<RefCell<AdmissionLog>>,
}

impl TimedAdmission {
    /// Wraps `inner`, appending decision times to `log`.
    pub fn new(inner: Box<dyn AdmissionPolicy>, log: Rc<RefCell<AdmissionLog>>) -> Self {
        Self { inner, log }
    }
}

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, request: &Request, ctx: &AdmissionContext<'_>) -> bool {
        let t0 = Instant::now();
        let admitted = self.inner.admit(request, ctx);
        self.log
            .borrow_mut()
            .decide_ns
            .push(t0.elapsed().as_secs_f64() * 1e9);
        admitted
    }

    fn wants_cost_probe(&self) -> bool {
        self.inner.wants_cost_probe()
    }

    fn preempt_worthy(&self, request: &Request, ctx: &AdmissionContext<'_>) -> bool {
        self.inner.preempt_worthy(request, ctx)
    }

    fn fingerprint_config(&self, state: &mut dyn Hasher) {
        self.inner.fingerprint_config(state);
    }
}
