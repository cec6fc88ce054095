//! The paper's crude execution-time model.

use std::fmt;

/// The crude timing model the paper uses throughout §4 to connect cache
/// misses to seconds saved:
///
/// > "If we crudely assume that each instruction takes a single cycle
/// > and that the L1 and L2 cache miss overheads are 7 cycles and 1.06
/// > microseconds respectively …"
///
/// `seconds = instructions / (clock · ipc)
///          + l1_misses · l1_penalty_cycles / clock
///          + l2_misses · l2_penalty_ns · 1e-9
///          + threads · thread_overhead`
///
/// The paper validates this model against measured times for each
/// benchmark (coming within ~5–25 % except for the most memory-bound
/// code); we use it to produce the modeled "seconds" columns of
/// Tables 2/4/6/8.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingModel {
    clock_hz: f64,
    instructions_per_cycle: f64,
    l1_miss_penalty_cycles: f64,
    l2_miss_penalty_ns: f64,
}

/// Estimated execution time, broken down by component.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Time executing instructions.
    pub instruction_seconds: f64,
    /// Time stalled on L1 misses.
    pub l1_seconds: f64,
    /// Time stalled on L2 misses.
    pub l2_seconds: f64,
    /// Thread fork/run overhead.
    pub thread_seconds: f64,
}

impl TimeBreakdown {
    /// Total modeled seconds.
    pub fn total(&self) -> f64 {
        self.instruction_seconds + self.l1_seconds + self.l2_seconds + self.thread_seconds
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}s (instr {:.2}s + L1 {:.2}s + L2 {:.2}s + threads {:.2}s)",
            self.total(),
            self.instruction_seconds,
            self.l1_seconds,
            self.l2_seconds,
            self.thread_seconds
        )
    }
}

impl TimingModel {
    /// Creates a timing model.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` or `instructions_per_cycle` is not positive.
    pub fn new(
        clock_hz: f64,
        instructions_per_cycle: f64,
        l1_miss_penalty_cycles: f64,
        l2_miss_penalty_ns: f64,
    ) -> Self {
        assert!(clock_hz > 0.0, "clock must be positive");
        assert!(instructions_per_cycle > 0.0, "IPC must be positive");
        TimingModel {
            clock_hz,
            instructions_per_cycle,
            l1_miss_penalty_cycles,
            l2_miss_penalty_ns,
        }
    }

    /// Estimates execution time for the given event counts.
    pub fn estimate(&self, instructions: u64, l1_misses: u64, l2_misses: u64) -> TimeBreakdown {
        self.estimate_with_threads(instructions, l1_misses, l2_misses, 0, 0.0)
    }

    /// Estimates execution time including per-thread scheduling overhead
    /// (`threads` threads at `thread_overhead_ns` each — paper Table 1).
    pub fn estimate_with_threads(
        &self,
        instructions: u64,
        l1_misses: u64,
        l2_misses: u64,
        threads: u64,
        thread_overhead_ns: f64,
    ) -> TimeBreakdown {
        TimeBreakdown {
            instruction_seconds: instructions as f64
                / (self.clock_hz * self.instructions_per_cycle),
            l1_seconds: l1_misses as f64 * self.l1_miss_penalty_cycles / self.clock_hz,
            l2_seconds: l2_misses as f64 * self.l2_miss_penalty_ns * 1e-9,
            thread_seconds: threads as f64 * thread_overhead_ns * 1e-9,
        }
    }

    /// Seconds saved by eliminating the given miss counts — the paper's
    /// "estimated time saved" analysis (§4.2–4.4).
    pub fn seconds_saved(&self, l1_misses_saved: i64, l2_misses_saved: i64) -> f64 {
        l1_misses_saved as f64 * self.l1_miss_penalty_cycles / self.clock_hz
            + l2_misses_saved as f64 * self.l2_miss_penalty_ns * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r8000_timing() -> TimingModel {
        TimingModel::new(75e6, 1.0, 7.0, 1060.0)
    }

    #[test]
    fn paper_sor_crude_analysis_reproduces() {
        // Paper §4.3 (SOR, hand-tiled vs untiled): "the estimated
        // overhead of 933M instructions would be about 12.4 seconds".
        let t = r8000_timing();
        let instr_s = t.estimate(933_000_000, 0, 0).instruction_seconds;
        assert!((instr_s - 12.44).abs() < 0.1, "{instr_s}");
        // "the estimated time saved by reducing L1 and L2 cache misses
        // is 7.3 and 8.0 seconds respectively" — 85M L1, 7.3M+ L2.
        let l1_s = t.estimate(0, 85_000_000, 0).l1_seconds;
        assert!((l1_s - 7.93).abs() < 0.7, "{l1_s}");
        let l2_s = t.estimate(0, 0, 7_300_000).l2_seconds;
        assert!((l2_s - 7.74).abs() < 0.5, "{l2_s}");
    }

    #[test]
    fn paper_threaded_matmul_saving_reproduces() {
        // §4.2: threaded matmul "would save about 69 seconds in L1 and
        // L2 cache misses" — it reduces L2 misses by 66.4M while adding
        // ~6M L1 misses.
        let t = r8000_timing();
        let saved = t.seconds_saved(-6_000_000, 66_400_000);
        assert!((saved - 69.0).abs() < 2.0, "{saved}");
    }

    #[test]
    fn breakdown_totals() {
        let t = TimingModel::new(100e6, 1.0, 10.0, 1000.0);
        let b = t.estimate_with_threads(100_000_000, 1_000_000, 100_000, 1000, 1000.0);
        assert!((b.instruction_seconds - 1.0).abs() < 1e-12);
        assert!((b.l1_seconds - 0.1).abs() < 1e-12);
        assert!((b.l2_seconds - 0.1).abs() < 1e-12);
        assert!((b.thread_seconds - 1e-3).abs() < 1e-12);
        assert!((b.total() - 1.201).abs() < 1e-9);
    }

    #[test]
    fn ipc_scales_instruction_time() {
        let t1 = TimingModel::new(100e6, 1.0, 0.0, 0.0);
        let t4 = TimingModel::new(100e6, 4.0, 0.0, 0.0);
        let b1 = t1.estimate(1_000_000, 0, 0);
        let b4 = t4.estimate(1_000_000, 0, 0);
        assert!((b1.instruction_seconds / b4.instruction_seconds - 4.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let b = r8000_timing().estimate(75_000_000, 0, 0);
        let s = b.to_string();
        assert!(s.contains("1.00s"), "{s}");
    }

    #[test]
    #[should_panic(expected = "clock must be positive")]
    fn rejects_nonpositive_clock() {
        let _ = TimingModel::new(0.0, 1.0, 7.0, 1060.0);
    }
}
