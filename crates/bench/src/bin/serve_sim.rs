//! Dynamic serving simulation: both paper use cases under live traffic on
//! a 3×3 heterogeneous MCM (the serving-side view the offline tables miss).
//!
//! Simulates (a) a datacenter Poisson query mix and (b) an XRBench-style
//! AR/VR frame mix on Het-Sides, reporting sustained throughput, p50/p95/p99
//! request latency, deadline-miss rate, energy, schedule-cache hit rate,
//! and MAESTRO cost-evaluation counts. Each mix is then replayed on the
//! warm cache (recurring traffic is the serving steady state), and the
//! primary policy is compared against the Standalone baseline under
//! identical traffic.
//!
//! ```sh
//! cargo run --release -p scar-bench --bin serve_sim
//! ```
//!
//! Environment knobs:
//!
//! * `SCAR_THREADS` — candidate-evaluation worker pool: unset → `Auto`,
//!   `serial` → no pool, `N` → `Fixed(N)`. Wall-clock only; reports are
//!   bit-identical across settings.
//! * `SCAR_POLICY` — primary serving policy, resolved through the
//!   zoo [`PolicyRegistry`] (default `SCAR`; also `Standalone`,
//!   `NN-baton`, `NSGA-SCAR`, `Merged-Pipeline`, `SCAR-splice` — run
//!   the `zoo` bin for the catalog).
//! * `SCAR_POLICY_FILE` — path to a JSON policy file (`{"policy": ...,
//!   "nsplits": ..., "search": ...}`, see [`scar_serve::PolicyFile`])
//!   naming the policy and its scheduler overrides: `nsplits` sets SCAR's
//!   window splits per live scenario (default 1; more splits → shorter
//!   windows → more preemption opportunities). `SCAR_POLICY`, when set,
//!   wins over the file's `policy`. A file that does not parse exits
//!   with code 2.
//! * `SCAR_ADMISSION` — admission policy: `accept` (default),
//!   `deadline` (deadline-feasibility via the cost-DB probe), or
//!   `shed[:N]` (per-stream queue bound, default 8).
//! * `SCAR_TRAFFIC_SHAPE` — re-express both mixes' arrivals at the same
//!   mean rates: `poisson`, `burst` (Markov-modulated on/off), or
//!   `diurnal` (sinusoidal rate). Unset keeps the native shapes
//!   (AR/VR frame clocks + datacenter Poisson).
//! * `SCAR_PREEMPT` — `1` enables mid-window preemption (arrivals cut the
//!   in-flight schedule at the next window boundary; the remainder is
//!   respliced). Default off: boundary-only rescheduling.
//! * `SCAR_COST_DB` — persist path for the MAESTRO cost database: every
//!   simulator opens it ([`Session::open`]; a missing file is a cold
//!   start) and saves back after each run. A second process pointed at
//!   the same path serves the same traffic with **zero** cost evaluations
//!   and byte-identical reports. A file that is not a loadable snapshot
//!   exits with code 2.
//! * `SCAR_COST_DB_MAX` — entry bound for the persisted cost database:
//!   before each save, a least-recently-used compaction pass evicts down
//!   to this many entries (unset → never evict). Only affects what is
//!   *persisted/kept cached* — costs are re-evaluated on demand, so
//!   schedules and reports are unchanged.
//! * `SCAR_EXPECT_ZERO_EVALS` — `1` (CI's warm pass) asserts that every
//!   simulation performed zero MAESTRO evaluations.
//! * `SCAR_EXPECT_PREEMPTIONS` — `1` (CI's overload smoke) asserts that
//!   the primary policy performed at least one mid-window preemption
//!   across the simulated mixes.
//! * `SCAR_TRACE` — `1` records a span timeline for the primary policy's
//!   simulations and writes it as Chrome `trace_event` JSON to
//!   `TRACE_serve_sim.json` (loadable in Perfetto). Observational only:
//!   the serving reports stay byte-identical with tracing on or off.
//! * `SCAR_METRICS` — `1` records the counter/gauge/histogram registry
//!   and writes it to `METRICS_serve_sim.json`.
//!
//! Flags (`SCAR_PREEMPT`, `SCAR_EXPECT_*`, `SCAR_TRACE`, `SCAR_METRICS`)
//! follow [`scar_bench::knobs`]: unset or empty is the default, `0` off,
//! `1` on, anything else exits with code 2.
//!
//! A run the policy cannot schedule (say, an evolutionary search with no
//! generations finds no candidate) exits with code 1, naming the mix and
//! the policy.
//!
//! Besides stdout (which includes wall-clock timings), the deterministic
//! serving reports are written to `REPORT_serve_sim.txt` so warm and cold
//! runs can be diffed byte-for-byte.

use scar_bench::knobs;
use scar_core::{Parallelism, ScheduleError, Session};
use scar_mcm::templates::{het_sides_3x3, Profile};
use scar_serve::{
    AdmissionKind, PolicyFile, PolicyRegistry, ServeConfig, ServeSim, TrafficMix, TrafficShape,
};
use scar_telemetry::Telemetry;
use std::fmt::Write as _;

/// Parses `SCAR_THREADS` into a [`Parallelism`]; unset → `Auto`, an
/// unparsable value aborts rather than silently unpinning the run.
fn parallelism_from_env() -> Parallelism {
    let Ok(v) = std::env::var("SCAR_THREADS") else {
        return Parallelism::Auto;
    };
    let v = v.trim();
    if v.eq_ignore_ascii_case("serial") {
        return Parallelism::Serial;
    }
    if v.eq_ignore_ascii_case("auto") || v.is_empty() {
        return Parallelism::Auto;
    }
    match v.parse() {
        Ok(n) => Parallelism::Fixed(n),
        Err(_) => {
            eprintln!("SCAR_THREADS={v:?} is not `serial`, `auto`, or a thread count");
            std::process::exit(2);
        }
    }
}

/// `result`'s value, or exit 1 naming the mix and the policy: a search
/// that finds no schedule is a configuration this run cannot serve.
fn served<T>(result: Result<T, ScheduleError>, mix: &str, policy: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{mix}: policy {policy} cannot schedule a round: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let horizon_s = 2.0;
    let parallelism = parallelism_from_env();
    let registry = PolicyRegistry::with_zoo();
    // the policy file (when given) is the base layer; SCAR_POLICY, when
    // also set, wins over its policy name
    let policy_file = match std::env::var("SCAR_POLICY_FILE") {
        Ok(path) => match PolicyFile::load(&path) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("SCAR_POLICY_FILE: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => None,
    };
    let policy = std::env::var("SCAR_POLICY").unwrap_or_else(|_| {
        policy_file
            .as_ref()
            .map_or_else(|| "SCAR".to_string(), |f| f.policy.clone())
    });
    if !registry.contains(&policy) {
        eprintln!(
            "SCAR_POLICY={policy:?} is not registered (known: {})",
            registry.names().join(", ")
        );
        std::process::exit(2);
    }
    let admission = match std::env::var("SCAR_ADMISSION") {
        Ok(spec) => AdmissionKind::parse(&spec).unwrap_or_else(|e| {
            eprintln!("SCAR_ADMISSION: {e}");
            std::process::exit(2);
        }),
        Err(_) => AdmissionKind::AcceptAll,
    };
    let shape = match std::env::var("SCAR_TRAFFIC_SHAPE").as_deref() {
        Err(_) => None,
        Ok("poisson") => Some(TrafficShape::Poisson),
        Ok("burst") => Some(TrafficShape::Burst),
        Ok("diurnal") => Some(TrafficShape::Diurnal),
        Ok(other) => {
            eprintln!("SCAR_TRAFFIC_SHAPE={other:?} is not poisson, burst, or diurnal");
            std::process::exit(2);
        }
    };
    let preemption = knobs::flag("SCAR_PREEMPT", false);
    let cost_db: Option<std::path::PathBuf> = std::env::var("SCAR_COST_DB").ok().map(Into::into);
    let cost_db_max = match std::env::var("SCAR_COST_DB_MAX") {
        Ok(n) => Some(n.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("SCAR_COST_DB_MAX={n:?} is not an entry bound");
            std::process::exit(2);
        })),
        Err(_) => None,
    };
    let expect_zero_evals = knobs::flag("SCAR_EXPECT_ZERO_EVALS", false);
    let expect_preemptions = knobs::flag("SCAR_EXPECT_PREEMPTIONS", false);
    // one sink for every primary-policy simulation; the Standalone
    // baselines get the disabled handle so the timeline attributes the
    // primary policy's wall time only
    let telemetry = knobs::telemetry();
    // the policy file's structural overrides reach every simulator; the
    // Standalone baselines ignore them
    let common = ServeConfig {
        parallelism,
        admission,
        preemption,
        ..ServeConfig::default()
    };
    let common = match &policy_file {
        Some(f) => f.apply(&common),
        None => common,
    };
    let make_cfg = |telemetry: Telemetry| ServeConfig {
        telemetry,
        ..common.clone()
    };
    // whoever opens a session persists it: each simulator opens the
    // snapshot as it stands, and every run ends with a bounded save
    let open_session = |cfg: &ServeConfig| {
        let session = match &cost_db {
            Some(path) => Session::open(path).unwrap_or_else(|e| {
                eprintln!("SCAR_COST_DB={}: {e}", path.display());
                std::process::exit(2);
            }),
            None => Session::new(),
        };
        session.with_telemetry(cfg.telemetry.clone())
    };
    let persist = |session: &Session| {
        if let Some(path) = &cost_db {
            if let Some(max) = cost_db_max {
                session.compact_costs(max);
            }
            if let Err(e) = session.save_costs(path) {
                eprintln!("warning: failed to persist cost database: {e}");
            }
        }
    };
    let reshape = |mix: TrafficMix| match shape {
        Some(s) => mix.reshaped(s),
        None => mix,
    };
    println!(
        "candidate evaluation: {parallelism:?} ({} worker threads) | policy {policy} | \
         admission {admission:?} | shape {} | preemption {} | nsplits {} | cost db {}\n",
        parallelism.threads(),
        shape.map_or("native".to_string(), |s| s.to_string()),
        if preemption { "on" } else { "off" },
        common.nsplits,
        cost_db.as_ref().map_or("off".to_string(), |p| {
            let bound = cost_db_max.map_or(String::new(), |max| format!(" (≤{max} entries)"));
            format!("{}{bound}", p.display())
        }),
    );
    let mut total_preemptions = 0u64;

    // The steady-state serving reports: diffing this file across cold and
    // warm processes proves bit-identical scheduling. Logged from each
    // simulator's *second* in-process run — by then every round is served
    // from the schedule cache in both a cold and a warm process, so the
    // whole report (evaluation counter included) is process-independent;
    // a first-run report necessarily differs in `cost_evaluations`.
    let mut report_log = String::new();

    for (profile, mix) in [
        (Profile::Datacenter, reshape(TrafficMix::datacenter(0x5CA2))),
        (Profile::ArVr, reshape(TrafficMix::arvr(0x5CA2))),
    ] {
        let mcm = het_sides_3x3(profile);
        println!(
            "┌── {} traffic on {} ({:.0} req/s offered, {horizon_s} s horizon)",
            mix.use_case,
            mcm,
            mix.offered_rps()
        );

        // cold start, then the same traffic replayed on the warm cache
        let cfg = make_cfg(telemetry.clone());
        let scheduler = registry.build(&policy, &cfg).expect("checked above");
        let session = open_session(&cfg);
        let mut sim = ServeSim::with_session(&mcm, scheduler, cfg, session);
        let restored = sim.session().cached_costs();
        if restored > 0 {
            println!("cost database restored: {restored} entries before the first round");
        }
        let t0 = std::time::Instant::now();
        let cold = served(sim.run(&mix, horizon_s), &mix.name, &policy);
        let cold_wall = t0.elapsed();
        persist(sim.session());
        let t1 = std::time::Instant::now();
        let warm = served(sim.run(&mix, horizon_s), &mix.name, &policy);
        let warm_wall = t1.elapsed();
        persist(sim.session());

        println!("{cold}");
        writeln!(report_log, "{warm}").expect("string write");
        println!(
            "replay on warm cache: {} hits / {} misses ({:.1}% hit rate), wall {:.1?} → {:.1?}",
            warm.cache.hits,
            warm.cache.misses,
            warm.cache.hit_rate() * 100.0,
            cold_wall,
            warm_wall
        );
        assert!(
            warm.cache.hits > 0,
            "recurring traffic must produce cache hits"
        );
        if expect_zero_evals {
            assert_eq!(
                cold.cost_evaluations, 0,
                "SCAR_EXPECT_ZERO_EVALS: the persisted snapshot must cover {}",
                mix.name
            );
        }
        total_preemptions += cold.preemptions + warm.preemptions;

        // the Standalone baseline under the same traffic (sharing the
        // persisted cost database — per-layer costs are scheduler-free)
        let base_cfg = make_cfg(Telemetry::disabled());
        let standalone = registry
            .build("Standalone", &base_cfg)
            .expect("built-in policy");
        let base_session = open_session(&base_cfg);
        let mut base = ServeSim::with_session(&mcm, standalone, base_cfg, base_session);
        let b = served(base.run(&mix, horizon_s), &mix.name, "Standalone");
        persist(base.session());
        let b_warm = served(base.run(&mix, horizon_s), &mix.name, "Standalone");
        persist(base.session());
        writeln!(report_log, "{b_warm}").expect("string write");
        println!(
            "vs Standalone: throughput {:.1} → {:.1} req/s | p99 {:.2} → {:.2} ms | energy {:.3} → {:.3} J",
            b.throughput_rps,
            cold.throughput_rps,
            b.latency.p99_s * 1e3,
            cold.latency.p99_s * 1e3,
            b.energy_j,
            cold.energy_j,
        );
        if expect_zero_evals {
            assert_eq!(b.cost_evaluations, 0, "baseline must warm-start too");
        }

        // persist one representative scheduling round through the shared
        // artifact path (same JSON shape the bench tables emit); `of`
        // records the scheduler's configuration so replay reconstructs the
        // exact knobs (e.g. a policy file's non-default nsplits)
        let live = mix.unit_scenario();
        let artifact = scar_core::ScheduleArtifact::of(
            format!("{} live round", mix.name),
            sim.scheduler(),
            sim.schedule_request(&live),
            served(sim.schedule_fresh(&live), &mix.name, &policy),
        );
        let path = format!("ARTIFACT_serve_{}.json", mix.use_case);
        let path = path.replace('/', "-").replace(' ', "_");
        scar_core::ScheduleArtifact::save_all(&path, &[artifact]).expect("write artifact");
        println!("wrote {path}");
        println!();
    }

    if expect_preemptions {
        assert!(
            total_preemptions > 0,
            "SCAR_EXPECT_PREEMPTIONS: no mid-window preemption occurred \
             (is SCAR_PREEMPT=1 set and the traffic bursty enough?)"
        );
        println!("mid-window preemptions across runs: {total_preemptions} (expected nonzero: ok)");
    }
    std::fs::write("REPORT_serve_sim.txt", report_log).expect("write REPORT_serve_sim.txt");
    println!("wrote REPORT_serve_sim.txt (deterministic reports, diffable across runs)");

    // wall-clock attribution goes to stdout and the trace file only —
    // never into the byte-compared report
    if let Some(summary) = telemetry.wall_summary() {
        println!("{summary}");
    }
    if telemetry
        .write_trace("TRACE_serve_sim.json")
        .expect("write TRACE_serve_sim.json")
    {
        println!("wrote TRACE_serve_sim.json (Chrome trace_event; load in Perfetto)");
    }
    if let Some(json) = telemetry.metrics_json() {
        std::fs::write("METRICS_serve_sim.json", json).expect("write METRICS_serve_sim.json");
        println!("wrote METRICS_serve_sim.json (counter/gauge/histogram registry)");
    }
}
