//! Aggregated simulation results in the paper's table format.

use crate::{CacheStats, MachineModel, MissClassCounts, TimeBreakdown};
use std::fmt;

/// Everything the paper's cache-simulation tables (3, 5, 7, 9) report
/// for one program version, plus enough to drive the timing model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Instructions accounted analytically (the paper's "I fetches").
    pub instructions: u64,
    /// Data reads observed.
    pub reads: u64,
    /// Data writes observed.
    pub writes: u64,
    /// L1 data-cache statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// L3 statistics, when a third level was simulated.
    pub l3: Option<CacheStats>,
    /// 3C classification of L2 misses.
    pub classes: MissClassCounts,
    /// Demand fetches that reached memory.
    pub memory_reads: u64,
    /// Dirty L2 lines written back to memory.
    pub memory_writebacks: u64,
    /// Threads forked+run during the measured region (0 for unthreaded
    /// versions); drives the thread-overhead term of the timing model.
    pub threads: u64,
}

impl SimReport {
    /// Total data references.
    pub fn data_references(&self) -> u64 {
        self.reads + self.writes
    }

    /// L1 miss rate in percent of data references (the denominator the
    /// paper's tables use).
    pub fn l1_miss_rate_percent(&self) -> f64 {
        if self.data_references() == 0 {
            0.0
        } else {
            100.0 * self.l1.misses() as f64 / self.data_references() as f64
        }
    }

    /// L2 miss rate in percent of L1 misses (the paper's convention:
    /// each level's rate is relative to the references it sees).
    pub fn l2_miss_rate_percent(&self) -> f64 {
        self.l2.miss_rate_percent()
    }

    /// Misses of the DRAM-facing level: the L3 when present, else the
    /// L2 — what the timing model charges the memory penalty for.
    pub fn llc_misses(&self) -> u64 {
        match &self.l3 {
            Some(l3) => l3.misses(),
            None => self.l2.misses(),
        }
    }

    /// Models execution time on `machine` using the paper's crude model,
    /// charging per-thread overhead at the machine's Table 1 value.
    pub fn time_on(&self, machine: &MachineModel) -> TimeBreakdown {
        machine.timing().estimate_with_threads(
            self.instructions,
            self.l1.misses(),
            self.llc_misses(),
            self.threads,
            machine.thread_overhead_ns(),
        )
    }
}

impl fmt::Display for SimReport {
    /// Renders the rows of the paper's per-version simulation columns
    /// ("memory references and cache misses in thousands").
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = |v: u64| (v as f64 / 1000.0).round() as u64;
        writeln!(f, "I fetches      {:>14}k", k(self.instructions))?;
        writeln!(f, "D references   {:>14}k", k(self.data_references()))?;
        writeln!(f, "L1 misses      {:>14}k", k(self.l1.misses()))?;
        writeln!(f, "  rate         {:>14.1}%", self.l1_miss_rate_percent())?;
        writeln!(f, "L2 misses      {:>14}k", k(self.l2.misses()))?;
        writeln!(f, "  rate         {:>14.1}%", self.l2_miss_rate_percent())?;
        writeln!(f, "L2 compulsory  {:>14}k", k(self.classes.compulsory))?;
        writeln!(f, "L2 capacity    {:>14}k", k(self.classes.capacity))?;
        write!(f, "L2 conflict    {:>14}k", k(self.classes.conflict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            instructions: 1_000_000,
            reads: 300_000,
            writes: 100_000,
            l1: CacheStats {
                reads: 300_000,
                writes: 100_000,
                read_misses: 30_000,
                write_misses: 10_000,
                writebacks: 5_000,
            },
            l2: CacheStats {
                reads: 40_000,
                writes: 5_000,
                read_misses: 4_000,
                write_misses: 500,
                writebacks: 100,
            },
            classes: MissClassCounts {
                compulsory: 500,
                capacity: 3_800,
                conflict: 200,
            },
            l3: None,
            memory_reads: 4_500,
            memory_writebacks: 100,
            threads: 0,
        }
    }

    #[test]
    fn rates_match_paper_conventions() {
        let r = report();
        assert!((r.l1_miss_rate_percent() - 10.0).abs() < 1e-9);
        assert!((r.l2_miss_rate_percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_contains_class_rows() {
        let s = report().to_string();
        assert!(s.contains("L2 compulsory"), "{s}");
        assert!(s.contains("L2 capacity"), "{s}");
        assert!(s.contains("L2 conflict"), "{s}");
        assert!(s.contains("10.0%"), "{s}");
    }

    #[test]
    fn time_on_charges_all_components() {
        let machine = MachineModel::r8000();
        let mut r = report();
        let base = r.time_on(&machine).total();
        r.threads = 1_000_000;
        let with_threads = r.time_on(&machine).total();
        // 1M threads at 1.6 µs each = 1.6 s extra.
        assert!((with_threads - base - 1.6).abs() < 1e-6);
    }

    #[test]
    fn empty_report_has_zero_rates() {
        let r = SimReport::default();
        assert_eq!(r.l1_miss_rate_percent(), 0.0);
        assert_eq!(r.l2_miss_rate_percent(), 0.0);
        assert_eq!(r.time_on(&MachineModel::r8000()).total(), 0.0);
    }
}
