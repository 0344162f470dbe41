//! Serving metrics: per-request latency percentiles, deadline accounting,
//! throughput, energy, and cache effectiveness.

use crate::cache::CacheStats;
use std::fmt;

/// Latency summary of a set of completed requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of requests summarized.
    pub count: usize,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Median (p50) latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_s: f64,
    /// Worst latency, seconds.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarizes latencies (need not be sorted). Empty input → zeros.
    ///
    /// NaN entries are filtered out before summarizing rather than
    /// panicking the whole serving report (the pre-fix implementation
    /// sorted with a comparator that panicked on NaN, so a single NaN window
    /// latency — e.g. from a degenerate cost-model input — took down the
    /// report for every healthy request). Non-NaN infinities are kept:
    /// they sort last via `total_cmp` and legitimately dominate the tail
    /// percentiles. `count` reports the summarized (non-NaN) samples.
    pub fn of(latencies: &[f64]) -> Self {
        let mut sorted: Vec<f64> = latencies.iter().copied().filter(|l| !l.is_nan()).collect();
        if sorted.is_empty() {
            return Self::default();
        }
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        Self {
            count,
            mean_s: sorted.iter().sum::<f64>() / count as f64,
            p50_s: percentile(&sorted, 50.0),
            p95_s: percentile(&sorted, 95.0),
            p99_s: percentile(&sorted, 99.0),
            max_s: *sorted.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 100]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    assert!((0.0..=100.0).contains(&q), "percentile out of range");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Per-stream serving statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// The stream's model name.
    pub model_name: String,
    /// Requests completed.
    pub completed: usize,
    /// Requests rejected by admission control (0 under accept-all).
    pub rejected: usize,
    /// Latency summary over completed requests.
    pub latency: LatencySummary,
    /// Requests that missed their deadline (0 for deadline-free streams).
    pub deadline_misses: usize,
    /// Whether the stream carries deadlines at all.
    pub has_deadlines: bool,
}

impl StreamStats {
    /// Deadline misses as a fraction of completed requests.
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.completed as f64
        }
    }
}

/// The outcome of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The traffic mix's name.
    pub mix_name: String,
    /// The serving policy's name (scheduler + MCM).
    pub policy_name: String,
    /// Virtual time at which the last request completed, seconds.
    pub makespan_s: f64,
    /// Virtual time the package spent executing scheduled windows,
    /// seconds — the makespan minus idle gaps waiting for arrivals.
    /// `busy_s / makespan_s` is the replica's utilization, the quantity a
    /// fleet's load balancing tries to even out.
    pub busy_s: f64,
    /// Requests the traffic mix offered over the horizon. Conservation of
    /// arrivals: `offered == completed + rejected`, always.
    pub offered: usize,
    /// Requests completed (everything admitted completes: the queue
    /// drains).
    pub completed: usize,
    /// Requests rejected by admission control (0 under accept-all).
    pub rejected: usize,
    /// Mid-window preemptions: scheduling rounds cut at a window (layer)
    /// boundary because a qualifying arrival landed while the schedule was
    /// in flight, with the remainder respliced into the next round.
    pub preemptions: u64,
    /// Scheduling rounds executed (live scenarios formed).
    pub windows_scheduled: usize,
    /// Sustained throughput: completed requests / makespan.
    pub throughput_rps: f64,
    /// Total energy over all scheduled windows, joules.
    pub energy_j: f64,
    /// Overall latency summary.
    pub latency: LatencySummary,
    /// Deadline misses across deadline-bound streams.
    pub deadline_misses: usize,
    /// Requests that carried a deadline.
    pub deadline_bound: usize,
    /// Schedule-cache counters for the run.
    pub cache: CacheStats,
    /// Scheduling rounds served by the incremental-rescheduling fast path
    /// (previous round's placement re-evaluated because only batch sizes
    /// changed) instead of a full search.
    pub incremental_reschedules: u64,
    /// Scheduling rounds that ran the full window search (neither a cache
    /// hit nor an incremental reschedule). Together with cache hits and
    /// incremental reschedules this partitions the non-preempt rounds —
    /// the deterministic phase breakdown (wall-clock attribution lives in
    /// the telemetry trace, never in this report).
    pub full_searches: u64,
    /// MAESTRO cost-model evaluations performed during the run. Zero on a
    /// warm start whose persisted cost snapshot covers the traffic — the
    /// counter the cold-start acceptance gate watches.
    pub cost_evaluations: u64,
    /// Per-stream breakdowns, in mix stream order.
    pub per_stream: Vec<StreamStats>,
}

impl ServeReport {
    /// Deadline misses as a fraction of deadline-bound requests
    /// (0 when the mix has no deadlines).
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.deadline_bound == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.deadline_bound as f64
        }
    }

    /// Rejections as a fraction of offered requests (0 when nothing was
    /// offered).
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.rejected as f64 / self.offered as f64
        }
    }

    /// Busy time as a fraction of the makespan (0 for an empty run).
    pub fn utilization(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.busy_s / self.makespan_s
        } else {
            0.0
        }
    }
}

fn ms(s: f64) -> String {
    format!("{:.2}", s * 1e3)
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} on {} ===", self.mix_name, self.policy_name)?;
        writeln!(
            f,
            "completed {} of {} requests in {:.3} s virtual ({} scheduling rounds, {:.1}% busy)",
            self.completed,
            self.offered,
            self.makespan_s,
            self.windows_scheduled,
            self.utilization() * 100.0
        )?;
        writeln!(
            f,
            "admission rejected {} ({:.1}%) | mid-window preemptions {}",
            self.rejected,
            self.rejection_rate() * 100.0,
            self.preemptions
        )?;
        writeln!(
            f,
            "throughput {:.1} req/s | energy {:.3} J | deadline misses {}/{} ({:.1}%)",
            self.throughput_rps,
            self.energy_j,
            self.deadline_misses,
            self.deadline_bound,
            self.deadline_miss_rate() * 100.0
        )?;
        writeln!(
            f,
            "latency ms: p50 {} | p95 {} | p99 {} | max {}",
            ms(self.latency.p50_s),
            ms(self.latency.p95_s),
            ms(self.latency.p99_s),
            ms(self.latency.max_s)
        )?;
        writeln!(
            f,
            "schedule cache: {} hits / {} misses ({:.1}% hit rate) | {} evictions | {} incremental reschedules",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.evictions,
            self.incremental_reschedules
        )?;
        writeln!(
            f,
            "rounds by phase: {} full searches | {} cache hits | {} incremental | {} preempt splices",
            self.full_searches, self.cache.hits, self.incremental_reschedules, self.preemptions
        )?;
        writeln!(
            f,
            "maestro cost evaluations this run: {}",
            self.cost_evaluations
        )?;
        writeln!(
            f,
            "  {:<12} {:>6} {:>9} {:>9} {:>9} {:>10}",
            "stream", "reqs", "p50 ms", "p95 ms", "p99 ms", "miss rate"
        )?;
        for s in &self.per_stream {
            writeln!(
                f,
                "  {:<12} {:>6} {:>9} {:>9} {:>9} {:>10}",
                s.model_name,
                s.completed,
                ms(s.latency.p50_s),
                ms(s.latency.p95_s),
                ms(s.latency.p99_s),
                if s.has_deadlines {
                    format!("{:.1}%", s.miss_rate() * 100.0)
                } else {
                    "-".to_string()
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn summary_of_known_set() {
        let s = LatencySummary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean_s, 2.5);
        assert_eq!(s.p50_s, 2.0);
        assert_eq!(s.max_s, 4.0);
        assert_eq!(LatencySummary::of(&[]), LatencySummary::default());
    }

    /// The degenerate inputs that used to panic the whole serving report
    /// (its sort expected finite latencies): NaN entries are
    /// dropped, infinities are summarized in sorted position.
    #[test]
    fn summary_survives_nan_and_infinite_latencies() {
        // one poisoned sample among healthy ones: stats over the healthy
        let s = LatencySummary::of(&[4.0, f64::NAN, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4, "NaN is filtered, finite samples remain");
        assert_eq!(s.mean_s, 2.5);
        assert_eq!(s.max_s, 4.0);
        // all-NaN input degrades to the empty summary, not a panic
        assert_eq!(
            LatencySummary::of(&[f64::NAN, f64::NAN]),
            LatencySummary::default()
        );
        // infinities are real (a request that never completes) — they sort
        // last and dominate max/p99
        let inf = LatencySummary::of(&[1.0, f64::INFINITY, 2.0]);
        assert_eq!(inf.count, 3);
        assert_eq!(inf.max_s, f64::INFINITY);
        assert_eq!(inf.p50_s, 2.0);
        // negative zero and negative values keep a total order
        let neg = LatencySummary::of(&[-0.0, 0.0, -1.0]);
        assert_eq!(neg.count, 3);
        assert_eq!(neg.p50_s, -0.0);
    }

    #[test]
    fn report_renders_all_sections() {
        let report = ServeReport {
            mix_name: "test mix".into(),
            policy_name: "SCAR on Het-Sides".into(),
            makespan_s: 1.5,
            busy_s: 0.75,
            offered: 12,
            completed: 10,
            rejected: 2,
            preemptions: 3,
            windows_scheduled: 4,
            throughput_rps: 10.0 / 1.5,
            energy_j: 0.25,
            latency: LatencySummary::of(&[0.01, 0.02, 0.03]),
            deadline_misses: 1,
            deadline_bound: 5,
            cache: CacheStats {
                hits: 3,
                misses: 1,
                evictions: 2,
            },
            incremental_reschedules: 1,
            full_searches: 4,
            cost_evaluations: 12,
            per_stream: vec![StreamStats {
                model_name: "EyeCod".into(),
                completed: 10,
                rejected: 2,
                latency: LatencySummary::of(&[0.01]),
                deadline_misses: 1,
                has_deadlines: true,
            }],
        };
        let text = report.to_string();
        for needle in [
            "test mix",
            "p50",
            "p99",
            "hit rate",
            "EyeCod",
            "75.0% hit",
            "2 evictions",
            "1 incremental",
            "rounds by phase: 4 full searches | 3 cache hits | 1 incremental | 3 preempt splices",
            "cost evaluations this run: 12",
            "completed 10 of 12",
            "50.0% busy",
            "admission rejected 2 (16.7%)",
            "mid-window preemptions 3",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!((report.deadline_miss_rate() - 0.2).abs() < 1e-12);
        assert!((report.rejection_rate() - 2.0 / 12.0).abs() < 1e-12);
    }
}
