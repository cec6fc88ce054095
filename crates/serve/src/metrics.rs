//! Aggregate serving metrics — the row `BENCH_serve.json` reports per
//! policy.
//!
//! Everything here is integral and derived from the deterministic
//! virtual clock, so a report is byte-reproducible across runs and
//! platforms (fractional metrics are scaled: `*_x1000` fields carry
//! three decimal places as integers).

/// One serving run's scoreboard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeReport {
    /// Policy identifier (`flat`, `hierarchical`, …).
    pub policy: &'static str,
    /// Serving lanes the run modeled.
    pub lanes: u64,
    /// Requests the trace offered.
    pub offered: u64,
    /// Requests admitted past the queue bound.
    pub admitted: u64,
    /// Requests turned away at admission (a full queue with nothing
    /// waiting to shed).
    pub rejected: u64,
    /// Admitted requests cancelled while queued to make room for a
    /// later arrival (`admitted == completed + shed` once the run ends
    /// drained).
    pub shed: u64,
    /// Requests actually served.
    pub completed: u64,
    /// Served requests whose payload was mostly L2-resident (≤ half
    /// the touched lines missed).
    pub warm_hits: u64,
    /// Served requests that mostly missed (the complement).
    pub cold_misses: u64,
    /// Drain units granted to lanes.
    pub drains: u64,
    /// Deepest the pending queue ever got.
    pub max_queue_depth: u64,
    /// Time-weighted mean pending depth, ×1000.
    pub mean_queue_depth_x1000: u64,
    /// Median modeled latency (arrival → completion), nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile modeled latency, nanoseconds.
    pub p99_latency_ns: u64,
    /// Mean modeled latency, nanoseconds.
    pub mean_latency_ns: u64,
    /// Mean of per-request latency ÷ service time, ×1000.
    pub mean_slowdown_x1000: u64,
    /// Virtual time from first arrival to last completion.
    pub makespan_ns: u64,
    /// Bin records the engine's eviction policy retired.
    pub evictions: u64,
    /// Most live bin records the engine's table ever held — the memory
    /// bound the eviction policy enforces.
    pub peak_live_bin_records: u64,
    /// Σ over shed requests of payload bytes × time queued, reported
    /// in byte-milliseconds: memory held only to be thrown away.
    pub wasted_memory_time: u64,
}

impl ServeReport {
    /// Warm hits as a percentage of completed requests.
    pub fn warm_hit_rate_pct(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            100.0 * self.warm_hits as f64 / self.completed as f64
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; zero when
/// empty. `pct` is 0–100.
pub fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len() as u64).div_ceil(100);
    let idx = rank.saturating_sub(1).min(sorted.len() as u64 - 1);
    sorted[usize::try_from(idx).unwrap_or(usize::MAX)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn warm_rate_handles_empty() {
        let mut report = ServeReport {
            policy: "flat",
            lanes: 1,
            offered: 0,
            admitted: 0,
            rejected: 0,
            shed: 0,
            completed: 0,
            warm_hits: 0,
            cold_misses: 0,
            drains: 0,
            max_queue_depth: 0,
            mean_queue_depth_x1000: 0,
            p50_latency_ns: 0,
            p99_latency_ns: 0,
            mean_latency_ns: 0,
            mean_slowdown_x1000: 0,
            makespan_ns: 0,
            evictions: 0,
            peak_live_bin_records: 0,
            wasted_memory_time: 0,
        };
        assert_eq!(report.warm_hit_rate_pct(), 0.0);
        report.completed = 4;
        report.warm_hits = 3;
        assert!((report.warm_hit_rate_pct() - 75.0).abs() < 1e-12);
    }
}
