//! A warm serving run whose every round is a schedule-cache hit allocates
//! a small constant per round: a hit round builds no live scenario and no
//! request, and hashes no layer.
//!
//! This is its own test binary because it installs a counting global
//! allocator. The count is per thread, so tests running in parallel do not
//! see each other's allocations, and every configuration serves with
//! `Parallelism::Serial`, so all of a run's allocations land on the test's
//! thread.

use scar::core::Parallelism;
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::serve::{ServeConfig, ServeSim, TrafficMix, TrafficShape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc`, `alloc_zeroed` and `realloc` calls made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: a thread being torn down may still allocate
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the counting beside it touches only a
// const-initialized thread-local `Cell`, which never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Serves the same arrivals twice on one simulator: the warm pass hits
/// the cache on every round, reproduces the cold pass, and allocates at
/// most a small constant per round (run set-up and the report included).
#[test]
fn warm_all_hit_rounds_allocate_a_small_constant() {
    const MAX_ALLOCATIONS_PER_ROUND: f64 = 6.0;
    for (mix, profile) in [
        (TrafficMix::arvr(11), Profile::ArVr),
        (
            TrafficMix::arvr(11).reshaped(TrafficShape::Burst),
            Profile::ArVr,
        ),
        (TrafficMix::datacenter(3), Profile::Datacenter),
    ] {
        let mcm = het_sides_3x3(profile);
        let cfg = ServeConfig {
            parallelism: Parallelism::Serial,
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::new(&mcm, cfg);
        let arrivals = mix.arrivals(0.5);
        let cold = sim.run_arrivals(&mix, arrivals.clone()).unwrap();
        let (warm, allocations) = counting(|| sim.run_arrivals(&mix, arrivals).unwrap());
        let label = &mix.name;
        assert_eq!(warm.cache.misses, 0, "{label}: the warm pass must only hit");
        assert_eq!(warm.latency, cold.latency, "{label}");
        assert_eq!(warm.energy_j, cold.energy_j, "{label}");
        assert_eq!(warm.makespan_s, cold.makespan_s, "{label}");
        assert_eq!(warm.windows_scheduled, cold.windows_scheduled, "{label}");
        let per_round = allocations as f64 / warm.windows_scheduled as f64;
        println!(
            "{label}: {allocations} allocations over {} rounds = {per_round:.2}/round",
            warm.windows_scheduled
        );
        assert!(
            per_round <= MAX_ALLOCATIONS_PER_ROUND,
            "{label}: {per_round:.2} allocations per hit round (bound {MAX_ALLOCATIONS_PER_ROUND})"
        );
    }
}
