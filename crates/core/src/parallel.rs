//! Deterministic order-preserving parallel evaluation primitives.
//!
//! The search engine and the schedule evaluator both need the same shape of
//! parallelism: map a pure function over an ordered batch of items and get
//! the results back *in batch order*, bit-identical to a serial run. That
//! determinism is the contract everything downstream relies on — the same
//! scenario scheduled with [`Parallelism::Serial`] or `Fixed(8)` must pick
//! the same schedule, report the same totals, and emit the same candidate
//! cloud (see `tests/determinism.rs`).
//!
//! `par_map_chunks` delivers it with `std::thread::scope`: the input is
//! split into contiguous chunks, each worker maps only its own chunk, and
//! the caller concatenates the per-chunk results in input order. No work
//! stealing, no locks, no nondeterministic reduction order.
//! `par_map_owned` is the same split for items the workers must own (the
//! fleet hands each replica its arrival share by value), with the first
//! chunk mapped on the caller's own thread.

/// Worker-pool sizing for candidate evaluation (threaded through
/// [`SearchBudget`](crate::SearchBudget), the serving loop, and the bench
/// binaries).
///
/// The knob only controls *wall-clock*: results are merged in generation
/// order, so every setting produces bit-identical schedules. Because of
/// that, it is deliberately excluded from schedule-cache fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Parallelism {
    /// One worker per available hardware thread.
    #[default]
    Auto,
    /// Exactly `n` workers (values below 1 are clamped to 1).
    Fixed(usize),
    /// Single-threaded: evaluate inline, never spawn a pool.
    Serial,
}

impl Parallelism {
    /// The number of worker threads this setting resolves to (≥ 1).
    ///
    /// `Auto` probes the host once per process: the probe reads cgroup
    /// files on Linux (tens of µs), and the search engine resolves the
    /// setting once per window.
    pub fn threads(self) -> usize {
        static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => *AUTO.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
        }
    }
}

/// Maps `f` over contiguous *chunks* of `items` on up to `threads` scoped
/// workers, flattening the per-chunk results in input order.
///
/// Each worker receives its whole contiguous slice, letting it hoist
/// per-task setup (evaluator context, cost-database read locks) across
/// the chunk; a per-item map is `|xs| xs.iter().map(f).collect()`. `f`
/// must return exactly one result per input item and must be pure per
/// item, in which case the output is identical to `f(items)` run serially
/// for every thread count.
pub(crate) fn par_map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return f(items);
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    let per_chunk: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|xs| s.spawn(move || f(xs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map_chunks worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for (i, part) in per_chunk.into_iter().enumerate() {
        debug_assert_eq!(
            part.len(),
            items.chunks(chunk).nth(i).map_or(0, <[T]>::len),
            "chunk closures must return one result per input item"
        );
        out.extend(part);
    }
    out
}

/// Maps `f` over `items` by value on up to `threads` workers and returns
/// the results in input order: the contiguous chunks `par_map_chunks`
/// splits, the first one mapped on the calling thread and each other one
/// on a scoped thread of its own.
///
/// Workers own their items, so an item can be a buffer `f` consumes, and
/// the caller, which would otherwise wait idle, serves a share itself:
/// memory it freed before the call can be reused there. With one thread
/// (or one item) everything runs inline, in order.
pub fn par_map_owned<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut rest = items.into_iter();
    let first: Vec<T> = rest.by_ref().take(chunk).collect();
    let f = &f;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads - 1);
        loop {
            let xs: Vec<T> = rest.by_ref().take(chunk).collect();
            if xs.is_empty() {
                break;
            }
            handles.push(s.spawn(move || xs.into_iter().map(f).collect::<Vec<R>>()));
        }
        let mut out: Vec<R> = first.into_iter().map(f).collect();
        for h in handles {
            out.extend(h.join().expect("par_map_owned worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolve_sanely() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert_eq!(Parallelism::Fixed(5).threads(), 5);
        assert!(Parallelism::Auto.threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn par_map_chunks_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 2).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let got = par_map_chunks(&items, threads, |xs| {
                // per-chunk "setup" hoisted outside the item loop
                let base: u64 = 2;
                xs.iter().map(|x| x * 3 + base).collect()
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    /// The regression this guards: evaluation silently serialized. At
    /// `threads = 4`, 8 items run as 4 chunks on 4 distinct spawned
    /// threads, none of them the caller's. It reads no clock, so it holds
    /// on any host; real speedup under contention is not checked.
    #[test]
    fn par_map_chunks_spreads_chunks_over_spawned_threads() {
        let items: Vec<u32> = (0..8).collect();
        let ids = par_map_chunks(&items, 4, |xs| {
            xs.iter().map(|_| std::thread::current().id()).collect()
        });
        assert_eq!(ids.len(), 8);
        let caller = std::thread::current().id();
        assert!(!ids.contains(&caller), "a chunk ran on the caller's thread");
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 4, "chunks shared a worker: {ids:?}");
        // each contiguous chunk of two items ran on one worker
        for pair in ids.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    /// Owned items come back mapped in input order for every thread
    /// count; at `threads = 2`, the first chunk runs on the caller's
    /// thread and the second on one spawned thread. Clock-free.
    #[test]
    fn par_map_owned_keeps_order_and_serves_the_first_chunk_inline() {
        let items: Vec<Vec<u64>> = (0..9).map(|i| vec![i; 3]).collect();
        let expect: Vec<u64> = (0..9).map(|i| 3 * i).collect();
        for threads in [1, 2, 4, 9, 64] {
            let got = par_map_owned(items.clone(), threads, |xs| xs.into_iter().sum::<u64>());
            assert_eq!(got, expect, "threads = {threads}");
        }
        let caller = std::thread::current().id();
        let ids = par_map_owned((0..4).collect::<Vec<u32>>(), 2, |_| {
            std::thread::current().id()
        });
        assert_eq!(ids[..2], [caller, caller], "the first chunk runs inline");
        assert_eq!(ids[2], ids[3], "the second chunk shares one worker");
        assert_ne!(ids[2], caller, "the second chunk runs on a spawned thread");
        assert!(par_map_owned(Vec::<u8>::new(), 4, |x| x).is_empty());
    }

    #[test]
    fn par_map_chunks_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let id = |xs: &[u32]| xs.to_vec();
        assert_eq!(par_map_chunks(&empty, 8, id), empty);
        assert_eq!(par_map_chunks(&[9u32], 8, id), vec![9]);
    }
}
