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

    #[test]
    fn par_map_chunks_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let id = |xs: &[u32]| xs.to_vec();
        assert_eq!(par_map_chunks(&empty, 8, id), empty);
        assert_eq!(par_map_chunks(&[9u32], 8, id), vec![9]);
    }
}
