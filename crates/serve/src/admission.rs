//! Admission control: decide at *arrival* time whether a request enters
//! the serving queues at all.
//!
//! Under sustained overload an accept-everything serving loop converts
//! excess load into unbounded queueing delay: every deadline-bound
//! request still completes eventually, but more and more of them complete
//! late. Admission control moves that failure to the front door — a
//! request that provably cannot meet its deadline (or that lands on an
//! already-saturated queue) is *rejected*, counted, and never scheduled,
//! so the requests that are admitted keep meeting their deadlines.
//!
//! The policy is pluggable ([`AdmissionPolicy`]); three built-ins cover
//! the paper-relevant regimes:
//!
//! * [`AcceptAll`] — the pre-admission behavior, bit-for-bit: every
//!   arrival is queued. The no-regression default.
//! * [`DeadlineFeasible`] — rejects a deadline-bound arrival whose
//!   deadline cannot be met even by an *idle* accelerator, judged by a
//!   cheap cost-database probe: the sum over the stream's layers of the
//!   best-chiplet latency at the stream's per-request batch
//!   ([`AdmissionContext::min_service_s`]). By arrival time `now ≥
//!   arrival`, so the bound tightens as queueing delay accumulates —
//!   a backlogged stream starts shedding exactly when waiting has already
//!   consumed the deadline slack. Deadline-free arrivals always pass.
//! * [`LoadShed`] — bounds each stream's queue depth: an arrival finding
//!   `max_queue` requests of its stream already waiting is shed. The
//!   classic bounded-buffer policy for deadline-free overload.
//!
//! Policies see only deterministic state (virtual time, queue depth, the
//! stream, the cost probe), so serving reports remain reproducible. The
//! configured policy is part of the serve-cache fingerprint context
//! ([`crate::cache::ServeContext`]): schedules cached under one admission
//! regime are never replayed under another.

use crate::traffic::{Request, RequestStream};
use std::hash::{Hash, Hasher};

/// The deterministic serving state a policy may consult for one
/// admission decision.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionContext<'a> {
    /// Virtual time at which the decision is made (the ingestion instant:
    /// at or after the request's arrival time).
    pub now_s: f64,
    /// Requests of the same stream already queued (excluding this one).
    pub queue_depth: usize,
    /// The emitting stream.
    pub stream: &'a RequestStream,
    /// Lower bound on one request's service latency from the cost-database
    /// probe: the sum over the stream's layers of the best-chiplet latency
    /// at the stream's per-request batch. No schedule completes the
    /// request faster than this. `None` when the policy did not ask for
    /// the probe ([`AdmissionPolicy::wants_cost_probe`] is `false`) — the
    /// serving loop skips the probe entirely then, so accept-all and
    /// queue-bound policies never touch the cost model.
    pub min_service_s: Option<f64>,
}

/// An admission decision rule. Implementations must be deterministic in
/// `(request, context)` plus their own configuration — serving runs are
/// replayed and diffed byte-for-byte.
pub trait AdmissionPolicy {
    /// A short, stable policy name for reports and fingerprints.
    fn name(&self) -> &str;

    /// Whether `request` enters the queues (`true`) or is rejected
    /// (`false`). Stateful policies (token buckets, …) may mutate
    /// themselves; the serving loop owns the rejection counters.
    fn admit(&mut self, request: &Request, ctx: &AdmissionContext<'_>) -> bool;

    /// Whether this policy reads [`AdmissionContext::min_service_s`]. The
    /// serving loop only runs (and memoizes) the cost-database probe for
    /// policies that return `true`; everyone else sees `None` and the
    /// default (accept-all) serving path never touches the cost model.
    fn wants_cost_probe(&self) -> bool {
        false
    }

    /// A **side-effect-free** hint consulted by the preemption trigger:
    /// is this still-pending arrival worth cutting an in-flight schedule
    /// for? An arrival judged unworthy does not splice, but still goes
    /// through [`AdmissionPolicy::admit`] when it is eventually ingested
    /// — so a policy that would reject a request on sight should say so
    /// here too, or the loop pays a full cache-bypassed reschedule for a
    /// request that is then turned away at the door. Must not mutate
    /// state (`&self`): it may be consulted for arrivals that are later
    /// rejected, or never consulted at all (preemption off, rate-gated).
    /// Default: every arrival is worth preempting for.
    fn preempt_worthy(&self, _request: &Request, _ctx: &AdmissionContext<'_>) -> bool {
        true
    }

    /// Hashes the policy's configuration (everything beyond its name that
    /// changes decisions) into `state`; combined with the name in the
    /// serve-cache fingerprint context. Configuration-free policies keep
    /// the default no-op.
    fn fingerprint_config(&self, _state: &mut dyn Hasher) {}
}

/// Every arrival is admitted — the pre-admission serving loop, bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcceptAll;

impl AdmissionPolicy for AcceptAll {
    fn name(&self) -> &str {
        "accept-all"
    }

    fn admit(&mut self, _request: &Request, _ctx: &AdmissionContext<'_>) -> bool {
        true
    }
}

/// Rejects deadline-bound arrivals that cannot meet their deadline even on
/// idle hardware (see the module docs). Deadline-free arrivals pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineFeasible;

impl AdmissionPolicy for DeadlineFeasible {
    fn name(&self) -> &str {
        "deadline-feasible"
    }

    fn wants_cost_probe(&self) -> bool {
        true
    }

    fn admit(&mut self, request: &Request, ctx: &AdmissionContext<'_>) -> bool {
        deadline_feasible(request, ctx)
    }

    /// A deadline-hopeless arrival is also not worth splicing a schedule
    /// for — it will be rejected at ingestion anyway.
    fn preempt_worthy(&self, request: &Request, ctx: &AdmissionContext<'_>) -> bool {
        deadline_feasible(request, ctx)
    }
}

/// The shared feasibility predicate: the deadline is reachable from
/// `now` even on idle hardware. Deadline-free requests always pass, as
/// does everything when the probe is absent (fail open: admission must
/// never reject on missing information).
fn deadline_feasible(request: &Request, ctx: &AdmissionContext<'_>) -> bool {
    match (request.deadline_s, ctx.min_service_s) {
        (Some(d), Some(min_service_s)) => d >= ctx.now_s + min_service_s,
        _ => true,
    }
}

/// Sheds arrivals whose stream already has `max_queue` requests waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadShed {
    /// Maximum queued requests per stream; an arrival beyond it is shed.
    pub max_queue: usize,
}

impl AdmissionPolicy for LoadShed {
    fn name(&self) -> &str {
        "load-shed"
    }

    fn admit(&mut self, _request: &Request, ctx: &AdmissionContext<'_>) -> bool {
        ctx.queue_depth < self.max_queue
    }

    /// An arrival the queue bound would shed right now is not worth a
    /// splice either. At trigger time the in-flight round has already
    /// drained the queues, so `queue_depth` is a *lower bound* on the
    /// depth the arrival will face at ingestion — the hint errs toward
    /// splicing, never toward suppressing a splice that would have
    /// served an admitted request.
    fn preempt_worthy(&self, _request: &Request, ctx: &AdmissionContext<'_>) -> bool {
        ctx.queue_depth < self.max_queue
    }

    fn fingerprint_config(&self, mut state: &mut dyn Hasher) {
        self.max_queue.hash(&mut state);
    }
}

/// Configuration-level selection of a built-in policy: what
/// [`ServeConfig`](crate::ServeConfig) carries (cloneable, comparable,
/// env-parsable). Custom [`AdmissionPolicy`] implementations bypass this
/// enum via [`ServeSim::with_admission`](crate::ServeSim::with_admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionKind {
    /// [`AcceptAll`].
    #[default]
    AcceptAll,
    /// [`DeadlineFeasible`].
    DeadlineFeasible,
    /// [`LoadShed`] with the given per-stream queue bound.
    LoadShed {
        /// Maximum queued requests per stream.
        max_queue: usize,
    },
}

impl AdmissionKind {
    /// Builds the boxed policy this kind names.
    pub fn policy(&self) -> Box<dyn AdmissionPolicy> {
        match *self {
            AdmissionKind::AcceptAll => Box::new(AcceptAll),
            AdmissionKind::DeadlineFeasible => Box::new(DeadlineFeasible),
            AdmissionKind::LoadShed { max_queue } => Box::new(LoadShed { max_queue }),
        }
    }

    /// Parses the `SCAR_ADMISSION` spellings: `accept` (or `accept-all`),
    /// `deadline` (or `deadline-feasible`), `shed` / `shed:N` (per-stream
    /// queue bound `N`, default 8). Case-insensitive.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim().to_ascii_lowercase();
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (spec.as_str(), None),
        };
        match (head, arg) {
            ("accept" | "accept-all" | "acceptall", None) => Ok(AdmissionKind::AcceptAll),
            ("deadline" | "deadline-feasible" | "deadlinefeasible", None) => {
                Ok(AdmissionKind::DeadlineFeasible)
            }
            ("shed" | "load-shed" | "loadshed", arg) => {
                let max_queue = match arg {
                    None => 8,
                    Some(a) => a
                        .parse()
                        .map_err(|_| format!("{a:?} is not a queue bound"))?,
                };
                Ok(AdmissionKind::LoadShed { max_queue })
            }
            _ => Err(format!(
                "{spec:?} is not an admission policy (accept, deadline, shed[:N])"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::ArrivalProcess;
    use scar_workloads::zoo;

    fn stream() -> RequestStream {
        RequestStream {
            model: zoo::eyecod(),
            samples_per_request: 1,
            arrivals: ArrivalProcess::Poisson { rate_hz: 10.0 },
            deadline_s: Some(0.1),
        }
    }

    fn request(arrival_s: f64, deadline_s: Option<f64>) -> Request {
        Request {
            id: 0,
            stream: 0,
            arrival_s,
            deadline_s,
        }
    }

    fn ctx(stream: &RequestStream, now_s: f64, queue_depth: usize) -> AdmissionContext<'_> {
        AdmissionContext {
            now_s,
            queue_depth,
            stream,
            min_service_s: Some(0.02),
        }
    }

    #[test]
    fn accept_all_accepts_everything() {
        let s = stream();
        let mut p = AcceptAll;
        assert!(p.admit(&request(0.0, Some(0.0)), &ctx(&s, 100.0, usize::MAX - 1)));
        assert_eq!(p.name(), "accept-all");
    }

    #[test]
    fn deadline_feasible_rejects_hopeless_requests_only() {
        let s = stream();
        let mut p = DeadlineFeasible;
        // deadline comfortably after now + min service → admitted
        assert!(p.admit(&request(0.0, Some(0.5)), &ctx(&s, 0.0, 0)));
        // boundary: exactly feasible is admitted
        assert!(p.admit(&request(0.0, Some(0.02)), &ctx(&s, 0.0, 0)));
        // hopeless: even idle hardware cannot make it
        assert!(!p.admit(&request(0.0, Some(0.019)), &ctx(&s, 0.0, 0)));
        // queueing delay consumed the slack: now is past arrival
        assert!(!p.admit(&request(0.0, Some(0.1)), &ctx(&s, 0.09, 0)));
        // deadline-free requests always pass
        assert!(p.admit(&request(0.0, None), &ctx(&s, 1e9, 0)));
    }

    /// The preemption hint mirrors `admit` where rejection is predictable
    /// — an arrival the policy would turn away at the door must not cut
    /// an in-flight schedule it can never benefit from.
    #[test]
    fn preempt_worthy_mirrors_predictable_rejection() {
        let s = stream();
        let p = DeadlineFeasible;
        assert!(p.preempt_worthy(&request(0.0, Some(0.5)), &ctx(&s, 0.0, 0)));
        assert!(!p.preempt_worthy(&request(0.0, Some(0.019)), &ctx(&s, 0.0, 0)));
        assert!(p.preempt_worthy(&request(0.0, None), &ctx(&s, 0.0, 0)));
        // the default hint (AcceptAll) always says worth it
        assert!(AcceptAll.preempt_worthy(&request(0.0, Some(0.0)), &ctx(&s, 1.0, 0)));
        // LoadShed mirrors its queue bound (depth at trigger time is a
        // lower bound on the depth at ingestion)
        assert!(!LoadShed { max_queue: 0 }.preempt_worthy(&request(0.0, None), &ctx(&s, 0.0, 9)));
        assert!(LoadShed { max_queue: 4 }.preempt_worthy(&request(0.0, None), &ctx(&s, 0.0, 1)));
        // only the deadline policy wants the cost probe
        assert!(DeadlineFeasible.wants_cost_probe());
        assert!(!AcceptAll.wants_cost_probe());
        assert!(!LoadShed { max_queue: 1 }.wants_cost_probe());
    }

    /// Fail open on a missing probe: a deadline policy consulted without
    /// `min_service_s` (e.g. a custom loop that never probes) admits.
    #[test]
    fn deadline_policy_fails_open_without_the_probe() {
        let s = stream();
        let no_probe = AdmissionContext {
            now_s: 0.0,
            queue_depth: 0,
            stream: &s,
            min_service_s: None,
        };
        let mut p = DeadlineFeasible;
        assert!(p.admit(&request(0.0, Some(0.0)), &no_probe));
    }

    #[test]
    fn load_shed_bounds_the_queue() {
        let s = stream();
        let mut p = LoadShed { max_queue: 2 };
        assert!(p.admit(&request(0.0, None), &ctx(&s, 0.0, 0)));
        assert!(p.admit(&request(0.0, None), &ctx(&s, 0.0, 1)));
        assert!(!p.admit(&request(0.0, None), &ctx(&s, 0.0, 2)));
    }

    #[test]
    fn kinds_build_their_policies() {
        assert_eq!(AdmissionKind::default(), AdmissionKind::AcceptAll);
        assert_eq!(AdmissionKind::AcceptAll.policy().name(), "accept-all");
        assert_eq!(
            AdmissionKind::DeadlineFeasible.policy().name(),
            "deadline-feasible"
        );
        assert_eq!(
            AdmissionKind::LoadShed { max_queue: 3 }.policy().name(),
            "load-shed"
        );
    }

    #[test]
    fn parse_covers_the_env_spellings() {
        assert_eq!(
            AdmissionKind::parse(" Accept "),
            Ok(AdmissionKind::AcceptAll)
        );
        assert_eq!(
            AdmissionKind::parse("deadline"),
            Ok(AdmissionKind::DeadlineFeasible)
        );
        assert_eq!(
            AdmissionKind::parse("shed"),
            Ok(AdmissionKind::LoadShed { max_queue: 8 })
        );
        assert_eq!(
            AdmissionKind::parse("SHED:3"),
            Ok(AdmissionKind::LoadShed { max_queue: 3 })
        );
        assert!(AdmissionKind::parse("shed:x").is_err());
        assert!(AdmissionKind::parse("fifo").is_err());
    }

    #[test]
    fn load_shed_fingerprints_its_bound() {
        use scar_hash::StableHasher;
        use std::hash::Hasher as _;
        let fp = |p: &dyn AdmissionPolicy| {
            let mut h = StableHasher::new();
            std::hash::Hash::hash(p.name(), &mut h);
            p.fingerprint_config(&mut h);
            h.finish()
        };
        assert_ne!(
            fp(&LoadShed { max_queue: 2 }),
            fp(&LoadShed { max_queue: 3 })
        );
        assert_ne!(fp(&AcceptAll), fp(&DeadlineFeasible));
    }
}
