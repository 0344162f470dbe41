//! Pluggable request routing: which replica serves which arrival.
//!
//! The dispatcher sees every arrival of the global, time-sorted sequence
//! exactly once, *before* any replica executes (see [`crate::fleet`] for
//! why that single pass is what makes the fleet deterministic). Its view
//! of replica load is a virtual backlog model maintained by the fleet —
//! per-replica `busy_until` walls advanced by the cost-DB min-service
//! probe ([`scar_core::Session::min_service_s`]) — so routing never
//! depends on replica execution order or wall clocks.
//!
//! Built-ins (the dispatch-policy table of DESIGN.md §12):
//!
//! | policy | routes to | uses |
//! |---|---|---|
//! | [`RoundRobin`] | next replica, cyclically | nothing |
//! | [`LeastLoaded`] | smallest estimated backlog | backlog |
//! | [`DeadlineAware`] | least-loaded replica whose probe says the deadline is feasible | backlog + min-service probe + deadline |
//! | [`CacheAffinity`] | the stream's home replica, spilling on overload | stream id + backlog |
//!
//! [`CacheAffinity`] can additionally *re-home* streams: with
//! `rehome_every > 0` the home map is mutable state, rebalanced at
//! deterministic epoch boundaries (every `rehome_every` routed arrivals)
//! from the routed-load imbalance observed during the epoch — see
//! DESIGN.md §13. The backlog slice the fleet hands every policy already
//! includes the inter-MCM migration penalty of moving each candidate
//! replica's missing stream state (when a fabric is attached), so
//! load-aware policies *see* the cost of going off-home before they
//! commit to it.

use crate::traffic::Request;

/// The per-arrival view a [`DispatchPolicy`] routes on. All slices are
/// indexed by replica.
#[derive(Debug)]
pub struct DispatchContext<'a> {
    /// The arrival instant (virtual seconds).
    pub now_s: f64,
    /// The arrival's stream index within the mix.
    pub stream: usize,
    /// The arrival's absolute deadline, if its stream carries one.
    pub deadline_s: Option<f64>,
    /// Estimated queued work per replica at `now_s`: how long each
    /// replica's virtual `busy_until` wall extends past now (0 for an
    /// idle replica).
    pub backlog_s: &'a [f64],
    /// The stream's min-service estimate per replica (the cost-DB probe:
    /// best-chiplet latency summed over the model's layers) — replicas
    /// are possibly heterogeneous, so the same stream costs differently
    /// across them.
    pub min_service_s: &'a [f64],
}

impl DispatchContext<'_> {
    /// The replica with the smallest estimated backlog (ties break on the
    /// lowest index — the fixed merge order).
    pub fn least_loaded(&self) -> usize {
        least_index(self.backlog_s)
    }
}

/// Index of the minimum of `values` (ties → lowest index). `total_cmp`
/// keeps the choice deterministic for any float contents.
fn least_index(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .expect("fleet has at least one replica")
}

/// A routing policy: maps each arrival to a replica index.
///
/// Policies may carry state (a rotation counter, a migration count) but
/// must be deterministic functions of the arrival sequence and the
/// contexts they are shown — the fleet's byte-identical-report contract
/// rests on it.
pub trait DispatchPolicy {
    /// Short policy name (reports, traces, config strings).
    fn name(&self) -> &'static str;

    /// The replica that serves `request`. Must return an index below
    /// `ctx.backlog_s.len()`.
    fn route(&mut self, request: &Request, ctx: &DispatchContext<'_>) -> usize;

    /// Rebalance events so far: arrivals routed away from the policy's
    /// preferred replica because of load (only [`CacheAffinity`] spills
    /// today; stateless policies report 0).
    fn migrations(&self) -> u64 {
        0
    }

    /// Home-map rewrites so far: streams moved to a new home replica at an
    /// epoch boundary (only [`CacheAffinity`] with `rehome_every > 0`
    /// re-homes; every other policy reports 0).
    fn rehomed(&self) -> u64 {
        0
    }
}

/// Cyclic routing, ignoring load: arrival `k` goes to replica
/// `k mod fleet_size`. The baseline every other policy is measured
/// against.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl DispatchPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _request: &Request, ctx: &DispatchContext<'_>) -> usize {
        let target = self.next % ctx.backlog_s.len();
        self.next = (self.next + 1) % ctx.backlog_s.len();
        target
    }
}

/// Routes to the replica with the smallest estimated backlog (the
/// virtual in-flight window wall), ties to the lowest index.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl DispatchPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _request: &Request, ctx: &DispatchContext<'_>) -> usize {
        ctx.least_loaded()
    }
}

/// Routes deadline-bound arrivals to a replica whose admission probe says
/// the deadline is feasible: `now + backlog + min_service <= deadline`.
/// Among feasible replicas it picks the least-loaded; when none is
/// feasible (or the arrival has no deadline) it degrades to least-loaded
/// over all replicas — the request is likely late anywhere, so spread it.
#[derive(Debug, Default)]
pub struct DeadlineAware;

impl DispatchPolicy for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline-aware"
    }

    fn route(&mut self, _request: &Request, ctx: &DispatchContext<'_>) -> usize {
        if let Some(deadline) = ctx.deadline_s {
            let feasible = (0..ctx.backlog_s.len())
                .filter(|&i| ctx.now_s + ctx.backlog_s[i] + ctx.min_service_s[i] <= deadline)
                .min_by(|&a, &b| {
                    ctx.backlog_s[a]
                        .total_cmp(&ctx.backlog_s[b])
                        .then(a.cmp(&b))
                });
            if let Some(i) = feasible {
                return i;
            }
        }
        ctx.least_loaded()
    }
}

/// Sticky routing for warm caches: stream `s` starts on home replica
/// `s mod fleet_size`, so each replica sees a fixed small tenant subset,
/// its live-scenario shapes recur, and its schedule cache and cost DB
/// stay hot (the hit-rate delta vs [`RoundRobin`] is the benchmark gate).
/// When the home falls more than `max_lag_s` behind the least-loaded
/// replica the arrival spills there instead — counted as a migration.
///
/// With `rehome_every > 0` the home map is mutable: every `rehome_every`
/// routed arrivals the policy closes an *epoch*, and if the busiest home
/// replica carried more than twice the probe-estimated load of the idlest
/// during it, the heaviest stream homed there moves to the idlest replica
/// (ties break to the lowest index at every step, so rebalancing is a
/// deterministic function of the arrival sequence — the fleet's
/// byte-identical-report contract survives). A one-stream-per-epoch move
/// keeps the map stable: the cache warmth an affinity policy exists to
/// protect is destroyed by churn, not by lag.
#[derive(Debug)]
pub struct CacheAffinity {
    /// How far (estimated backlog, seconds) the home replica may lag the
    /// least-loaded one before an arrival is migrated away.
    pub max_lag_s: f64,
    /// Re-homing epoch length in routed arrivals; `0` (the default)
    /// keeps the static `stream % fleet_size` map.
    pub rehome_every: usize,
    homes: Vec<usize>,
    epoch_home_load: Vec<f64>,
    stream_load: Vec<f64>,
    epoch_arrivals: usize,
    migrations: u64,
    rehomed: u64,
}

impl CacheAffinity {
    /// Default spill threshold, seconds. Generous relative to the
    /// millisecond-scale service times of the built-in mixes: affinity
    /// holds until the home replica is badly behind.
    pub const DEFAULT_MAX_LAG_S: f64 = 0.25;

    /// An affinity policy spilling when the home lags by `max_lag_s`,
    /// with re-homing off.
    pub fn new(max_lag_s: f64) -> Self {
        Self::with_rehoming(max_lag_s, 0)
    }

    /// An affinity policy that additionally rebalances its home map every
    /// `rehome_every` routed arrivals (`0` = never).
    pub fn with_rehoming(max_lag_s: f64, rehome_every: usize) -> Self {
        Self {
            max_lag_s,
            rehome_every,
            homes: Vec::new(),
            epoch_home_load: Vec::new(),
            stream_load: Vec::new(),
            epoch_arrivals: 0,
            migrations: 0,
            rehomed: 0,
        }
    }

    /// The current home replica of `stream` in an `n`-replica fleet.
    pub fn home_of(&self, stream: usize, n: usize) -> usize {
        self.homes.get(stream).copied().unwrap_or(stream % n)
    }

    /// Closes an epoch: one stream moves from the busiest home to the
    /// idlest if the probe-load imbalance exceeded 2×, then the epoch
    /// counters reset.
    fn rebalance(&mut self) {
        self.epoch_arrivals = 0;
        let busiest = self
            .epoch_home_load
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i);
        let idlest = self
            .epoch_home_load
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ia.cmp(ib)))
            .map(|(i, _)| i);
        if let (Some(busy), Some(idle)) = (busiest, idlest) {
            if busy != idle && self.epoch_home_load[busy] > 2.0 * self.epoch_home_load[idle] {
                let mover = self
                    .stream_load
                    .iter()
                    .enumerate()
                    .filter(|(s, _)| self.homes[*s] == busy)
                    .max_by(|(sa, a), (sb, b)| a.total_cmp(b).then(sb.cmp(sa)))
                    .map(|(s, _)| s);
                if let Some(s) = mover {
                    self.homes[s] = idle;
                    self.rehomed += 1;
                }
            }
        }
        for v in &mut self.epoch_home_load {
            *v = 0.0;
        }
        for v in &mut self.stream_load {
            *v = 0.0;
        }
    }
}

impl Default for CacheAffinity {
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX_LAG_S)
    }
}

impl DispatchPolicy for CacheAffinity {
    fn name(&self) -> &'static str {
        "cache-affinity"
    }

    fn route(&mut self, _request: &Request, ctx: &DispatchContext<'_>) -> usize {
        let n = ctx.backlog_s.len();
        if ctx.stream >= self.homes.len() {
            // lazily extend the home map with the static default
            for s in self.homes.len()..=ctx.stream {
                self.homes.push(s % n);
            }
            self.stream_load.resize(self.homes.len(), 0.0);
        }
        let home = self.homes[ctx.stream];
        let least = ctx.least_loaded();
        let target = if ctx.backlog_s[home] - ctx.backlog_s[least] > self.max_lag_s {
            self.migrations += 1;
            least
        } else {
            home
        };
        if self.rehome_every > 0 {
            if self.epoch_home_load.len() < n {
                self.epoch_home_load.resize(n, 0.0);
            }
            // attribute the arrival's probe load to its *home*: imbalance
            // of the sticky assignment is what re-homing corrects
            let load = ctx.min_service_s[home];
            self.epoch_home_load[home] += load;
            self.stream_load[ctx.stream] += load;
            self.epoch_arrivals += 1;
            if self.epoch_arrivals >= self.rehome_every {
                self.rebalance();
            }
        }
        target
    }

    fn migrations(&self) -> u64 {
        self.migrations
    }

    fn rehomed(&self) -> u64 {
        self.rehomed
    }
}

/// The built-in dispatch policies by configuration value, mirroring
/// [`crate::admission::AdmissionKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`DeadlineAware`].
    DeadlineAware,
    /// [`CacheAffinity`] with its spill threshold and re-homing epoch.
    CacheAffinity {
        /// Spill threshold, seconds (see [`CacheAffinity::max_lag_s`]).
        max_lag_s: f64,
        /// Re-homing epoch in routed arrivals, `0` = static homes (see
        /// [`CacheAffinity::rehome_every`]).
        rehome_every: usize,
    },
}

impl DispatchKind {
    /// Every built-in at its default configuration, in a fixed sweep
    /// order (benchmarks and invariant tests iterate this).
    pub fn builtins() -> Vec<DispatchKind> {
        vec![
            DispatchKind::RoundRobin,
            DispatchKind::LeastLoaded,
            DispatchKind::DeadlineAware,
            DispatchKind::CacheAffinity {
                max_lag_s: CacheAffinity::DEFAULT_MAX_LAG_S,
                rehome_every: 0,
            },
        ]
    }

    /// The policy's short name (matches what [`DispatchKind::parse`]
    /// accepts).
    pub fn name(&self) -> &'static str {
        match self {
            DispatchKind::RoundRobin => "round-robin",
            DispatchKind::LeastLoaded => "least-loaded",
            DispatchKind::DeadlineAware => "deadline-aware",
            DispatchKind::CacheAffinity { .. } => "cache-affinity",
        }
    }

    /// Constructs a fresh policy value of this kind.
    pub fn policy(&self) -> Box<dyn DispatchPolicy> {
        match self {
            DispatchKind::RoundRobin => Box::new(RoundRobin::default()),
            DispatchKind::LeastLoaded => Box::new(LeastLoaded),
            DispatchKind::DeadlineAware => Box::new(DeadlineAware),
            DispatchKind::CacheAffinity {
                max_lag_s,
                rehome_every,
            } => Box::new(CacheAffinity::with_rehoming(*max_lag_s, *rehome_every)),
        }
    }

    /// Parses a policy name: `rr`/`round-robin`, `least`/`least-loaded`,
    /// `deadline`/`deadline-aware`, or `affinity`/`cache-affinity` (at its
    /// default configuration). Case and surrounding whitespace are
    /// ignored.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the accepted forms.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim().to_ascii_lowercase().as_str() {
            "rr" | "round-robin" | "roundrobin" => Ok(DispatchKind::RoundRobin),
            "least" | "least-loaded" | "leastloaded" => Ok(DispatchKind::LeastLoaded),
            "deadline" | "deadline-aware" | "deadlineaware" => Ok(DispatchKind::DeadlineAware),
            "affinity" | "cache-affinity" | "cacheaffinity" => Ok(DispatchKind::CacheAffinity {
                max_lag_s: CacheAffinity::DEFAULT_MAX_LAG_S,
                rehome_every: 0,
            }),
            other => Err(format!(
                "unknown dispatch policy {other:?} (try rr, least, deadline or affinity)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(stream: usize, at: f64, deadline: Option<f64>) -> Request {
        Request {
            id: 0,
            stream,
            arrival_s: at,
            deadline_s: deadline,
        }
    }

    fn ctx<'a>(
        now: f64,
        stream: usize,
        deadline: Option<f64>,
        backlog: &'a [f64],
        min_service: &'a [f64],
    ) -> DispatchContext<'a> {
        DispatchContext {
            now_s: now,
            stream,
            deadline_s: deadline,
            backlog_s: backlog,
            min_service_s: min_service,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobin::default();
        let backlog = [0.0; 3];
        let ms = [0.0; 3];
        let r = req(0, 0.0, None);
        let picks: Vec<usize> = (0..5)
            .map(|_| p.route(&r, &ctx(0.0, 0, None, &backlog, &ms)))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_loaded_breaks_ties_low() {
        let mut p = LeastLoaded;
        let r = req(0, 0.0, None);
        let ms = [0.0; 3];
        assert_eq!(p.route(&r, &ctx(0.0, 0, None, &[0.3, 0.1, 0.2], &ms)), 1);
        assert_eq!(p.route(&r, &ctx(0.0, 0, None, &[0.2, 0.1, 0.1], &ms)), 1);
        assert_eq!(p.route(&r, &ctx(0.0, 0, None, &[0.0, 0.0, 0.0], &ms)), 0);
    }

    #[test]
    fn deadline_aware_picks_a_feasible_replica() {
        let mut p = DeadlineAware;
        // replica 0 is idle but slow, replica 1 busy but fast
        let backlog = [0.0, 0.05];
        let ms = [0.2, 0.01];
        // deadline 0.1: only replica 1 makes it (0.05 + 0.01 <= 0.1)
        let r = req(0, 0.0, Some(0.1));
        assert_eq!(p.route(&r, &ctx(0.0, 0, Some(0.1), &backlog, &ms)), 1);
        // hopeless deadline: fall back to least loaded (replica 0)
        let r2 = req(0, 0.0, Some(0.001));
        assert_eq!(p.route(&r2, &ctx(0.0, 0, Some(0.001), &backlog, &ms)), 0);
        // no deadline at all: least loaded
        let r3 = req(0, 0.0, None);
        assert_eq!(p.route(&r3, &ctx(0.0, 0, None, &backlog, &ms)), 0);
    }

    #[test]
    fn affinity_sticks_until_the_home_lags() {
        let mut p = CacheAffinity::new(0.1);
        let ms = [0.0; 2];
        let r = req(1, 0.0, None);
        // stream 1 of 2 replicas → home is replica 1
        assert_eq!(p.route(&r, &ctx(0.0, 1, None, &[0.0, 0.05], &ms)), 1);
        assert_eq!(p.migrations(), 0);
        // home lags by more than max_lag_s → spill to least loaded
        assert_eq!(p.route(&r, &ctx(0.0, 1, None, &[0.0, 0.25], &ms)), 0);
        assert_eq!(p.migrations(), 1);
    }

    #[test]
    fn kind_parses_and_round_trips() {
        for (spec, kind) in [
            ("rr", DispatchKind::RoundRobin),
            (" Round-Robin ", DispatchKind::RoundRobin),
            ("least", DispatchKind::LeastLoaded),
            ("LEASTLOADED", DispatchKind::LeastLoaded),
            ("deadline", DispatchKind::DeadlineAware),
            (
                "affinity",
                DispatchKind::CacheAffinity {
                    max_lag_s: CacheAffinity::DEFAULT_MAX_LAG_S,
                    rehome_every: 0,
                },
            ),
        ] {
            let parsed = DispatchKind::parse(spec).expect(spec);
            assert_eq!(parsed, kind, "{spec}");
            assert_eq!(
                DispatchKind::parse(parsed.name()).unwrap().name(),
                parsed.name()
            );
        }
        // anything else is an unknown policy, `:argument`s included; the
        // message quotes the spec and lists the accepted names
        for (bad, quoted) in [
            ("", ""),
            ("   ", ""),
            ("nope", "nope"),
            (":least", ":least"),
            ("least:", "least:"),
            ("rr:3", "rr:3"),
            ("Affinity:0.5", "affinity:0.5"),
            ("affinity:0.5:5000", "affinity:0.5:5000"),
        ] {
            let err = DispatchKind::parse(bad).unwrap_err();
            assert!(
                err.contains(&format!("unknown dispatch policy {quoted:?}")),
                "{bad:?} → {err:?}"
            );
            assert!(
                err.contains("try rr, least, deadline or affinity"),
                "{err:?}"
            );
        }
    }

    #[test]
    fn policies_report_their_names() {
        for kind in DispatchKind::builtins() {
            assert_eq!(kind.policy().name(), kind.name());
        }
    }

    /// Every built-in's `name()` is a spec its own `parse()` accepts and
    /// maps back to the same kind (default-configured) — the guarantee
    /// that lets reports and benchmark configurations quote policy names
    /// verbatim.
    #[test]
    fn builtin_names_parse_back_to_themselves() {
        for kind in DispatchKind::builtins() {
            let reparsed = DispatchKind::parse(kind.name())
                .unwrap_or_else(|e| panic!("{} must self-parse: {e}", kind.name()));
            assert_eq!(reparsed, kind, "{}", kind.name());
        }
    }

    #[test]
    fn rehoming_moves_the_heaviest_stream_off_the_busiest_home() {
        // 2 replicas, 2 streams both homed on replica 0 (streams 0 and 2).
        // Stream 2 is twice as heavy; after one epoch it must move to the
        // idle replica 1 while stream 0 stays.
        let mut p = CacheAffinity::with_rehoming(10.0, 4);
        let backlog = [0.0, 0.0];
        let light = [0.01, 0.01];
        let heavy = [0.02, 0.02];
        let r0 = req(0, 0.0, None);
        let r2 = req(2, 0.0, None);
        for _ in 0..2 {
            assert_eq!(p.route(&r0, &ctx(0.0, 0, None, &backlog, &light)), 0);
            assert_eq!(p.route(&r2, &ctx(0.0, 2, None, &backlog, &heavy)), 0);
        }
        assert_eq!(p.rehomed(), 1, "epoch of 4 arrivals closed exactly once");
        assert_eq!(p.home_of(0, 2), 0, "light stream keeps its home");
        assert_eq!(
            p.home_of(2, 2),
            1,
            "heavy stream re-homed to the idle replica"
        );
        assert_eq!(p.route(&r2, &ctx(0.0, 2, None, &backlog, &heavy)), 1);
    }

    #[test]
    fn rehoming_holds_under_balanced_load() {
        // streams 0 and 1 home on different replicas with equal load: no
        // imbalance, no move, and rehome_every = 0 never rebalances at all
        let mut balanced = CacheAffinity::with_rehoming(10.0, 2);
        let mut off = CacheAffinity::new(10.0);
        let backlog = [0.0, 0.0];
        let ms = [0.01, 0.01];
        for k in 0..10 {
            let s = k % 2;
            let r = req(s, 0.0, None);
            assert_eq!(balanced.route(&r, &ctx(0.0, s, None, &backlog, &ms)), s);
            assert_eq!(off.route(&r, &ctx(0.0, s, None, &backlog, &ms)), s);
        }
        assert_eq!(balanced.rehomed(), 0, "2x imbalance bar not met");
        assert_eq!(off.rehomed(), 0);
    }
}
