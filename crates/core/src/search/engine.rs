//! The shared window-search engine: parallel batch evaluation of candidate
//! streams.
//!
//! The per-window search is generate-then-score over
//! (allocation × segmentation × placement) candidates. Generation is
//! sequential and RNG-driven; evaluation (the §III-E cost model) is
//! embarrassingly parallel. Neither half is cheap: at one search thread
//! on a 2-vCPU host, evaluation takes 39% of an overload serving pass
//! and generation (segmentation expansion, placement walk, candidate
//! materialization) most of the rest of the search's 86% (DESIGN.md §6).
//! The engine exploits that split:
//!
//! * a [`CandidateSource`] (brute-force or evolutionary) produces ordered
//!   batches of [`WindowCandidate`]s, drawing all of its randomness on the
//!   generation side;
//! * the engine scores each batch across a [`par_map_chunks`] worker pool
//!   sized by [`SearchBudget::parallelism`](crate::SearchBudget), then
//!   hands the results to a per-candidate sink **in generation order** —
//!   best-candidate selection, the candidate cloud, and the feedback
//!   handed back to the source are all identical to a serial run, for any
//!   thread count;
//! * scored batches are fed back to the source via
//!   [`CandidateSource::observe`], which is how the evolutionary driver
//!   closes its selection loop without ever touching evaluation itself.

use super::SearchCtx;
use crate::evaluate::{Evaluator, WindowEval};
use crate::parallel::par_map_chunks;
use crate::problem::{OptMetric, WindowSchedule};

/// One fully specified window schedule awaiting evaluation.
pub(crate) struct WindowCandidate {
    /// Deterministic identity within the source's stream: candidates are
    /// numbered in generation order (the order the source's seeded RNG
    /// produced them), which is the order results are merged in.
    pub id: u64,
    /// The candidate window schedule.
    pub schedule: WindowSchedule,
}

/// An ordered, possibly feedback-driven stream of window candidates.
///
/// Contract: `next_batch` is called repeatedly until it returns an empty
/// batch; after every non-empty batch the engine calls `observe` exactly
/// once with the metric scores of that batch, in batch order. Sources must
/// confine all randomness to generation so that evaluation order (which is
/// parallel) cannot influence the stream.
pub(crate) trait CandidateSource {
    /// The next ordered batch of candidates; empty means exhausted.
    fn next_batch(&mut self) -> Vec<WindowCandidate>;

    /// Feedback: the scores of the batch just returned, in batch order.
    fn observe(&mut self, _scores: &[f64]) {}
}

/// A fully evaluated candidate as the engine hands it to a sink: the
/// schedule itself, its full per-model evaluation, and its scalar score
/// under the search metric. Sinks receive candidates in generation order
/// (the id stream is strictly increasing), so selectors tie-break on
/// arrival order.
pub(crate) struct ScoredCandidate {
    /// The candidate window schedule.
    pub schedule: WindowSchedule,
    /// Its evaluation (totals + per-model breakdown).
    pub eval: WindowEval,
    /// Its scalar score under the search metric.
    pub score: f64,
}

/// Drains `source`, evaluating every batch in parallel and handing each
/// scored candidate to `sink` in generation order — bit-identical for any
/// thread count. The sink decides what to keep: the scalar search keeps
/// only the running best, multi-objective selectors keep the whole cloud.
pub(crate) fn drain(
    ctx: &SearchCtx<'_>,
    mut source: impl CandidateSource,
    mut sink: impl FnMut(ScoredCandidate),
) {
    let evaluator = ctx.evaluator();
    let threads = ctx.budget.parallelism.threads();

    loop {
        // spans are recorded here on the coordinating thread — workers
        // inside the pool never touch the telemetry sink
        let batch = {
            let mut g = ctx.tel.span("search.generation");
            let batch = source.next_batch();
            g.push_arg("candidates", batch.len());
            batch
        };
        if batch.is_empty() {
            break;
        }
        debug_assert!(
            batch.windows(2).all(|w| w[0].id < w[1].id),
            "candidate ids must be strictly increasing in generation order"
        );
        let _eval_span = ctx
            .tel
            .span("search.evaluation")
            .arg("candidates", batch.len())
            .arg("threads", threads);
        let scored = evaluate_batch(&evaluator, ctx.metric, &batch, threads);

        // in-order merge: identical to a serial evaluation loop
        let mut scores = Vec::with_capacity(scored.len());
        for (cand, (eval, score)) in batch.into_iter().zip(scored) {
            scores.push(score);
            sink(ScoredCandidate {
                schedule: cand.schedule,
                eval,
                score,
            });
        }
        drop(_eval_span);
        let _g = ctx.tel.span("search.generation");
        source.observe(&scores);
    }
}

/// Scores one batch on up to `threads` workers, results in batch order.
///
/// Each worker gets a contiguous candidate *slice* and evaluates it
/// through [`Evaluator::evaluate_windows`], which amortizes cost-database
/// locking and evaluation setup across the slice. Per-candidate
/// evaluation is pure and the chunked merge preserves batch order, so
/// every thread count produces bit-identical results.
fn evaluate_batch(
    evaluator: &Evaluator<'_>,
    metric: &OptMetric,
    batch: &[WindowCandidate],
    threads: usize,
) -> Vec<(WindowEval, f64)> {
    par_map_chunks(batch, threads, |chunk| {
        let schedules: Vec<&WindowSchedule> = chunk.iter().map(|c| &c.schedule).collect();
        evaluator
            .evaluate_windows(&schedules)
            .into_iter()
            .map(|eval| {
                let score = metric.score(&eval.totals());
                (eval, score)
            })
            .collect()
    })
}
