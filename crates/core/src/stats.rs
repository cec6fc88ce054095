//! Scheduling statistics.

use std::fmt;

/// What one [`run`](crate::Scheduler::run) executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Threads executed.
    pub threads_run: u64,
    /// Non-empty bins visited.
    pub bins_visited: usize,
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} threads in {} bins",
            self.threads_run, self.bins_visited
        )
    }
}

/// What one [`ParScheduler`](crate::ParScheduler) worker did during a
/// [`replay`](crate::ParScheduler::replay).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Bins this worker drained to completion.
    pub bins_executed: u64,
    /// Threads this worker executed.
    pub threads_executed: u64,
    /// Cost units charged to this worker: its busy virtual time.
    pub units: u64,
    /// Steal attempts (one per victim tried).
    pub steals_attempted: u64,
    /// Steal attempts that transferred at least one bin.
    pub steals_succeeded: u64,
}

impl std::iter::Sum for WorkerStats {
    fn sum<I: Iterator<Item = WorkerStats>>(iter: I) -> Self {
        iter.fold(WorkerStats::default(), |sum, w| WorkerStats {
            bins_executed: sum.bins_executed + w.bins_executed,
            threads_executed: sum.threads_executed + w.threads_executed,
            units: sum.units + w.units,
            steals_attempted: sum.steals_attempted + w.steals_attempted,
            steals_succeeded: sum.steals_succeeded + w.steals_succeeded,
        })
    }
}

impl fmt::Display for WorkerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} threads in {} bins, {} units, {}/{} steals",
            self.threads_executed,
            self.bins_executed,
            self.units,
            self.steals_succeeded,
            self.steals_attempted
        )
    }
}

/// Distribution of scheduled threads over bins.
///
/// The paper reports these for every benchmark, e.g. "the threaded
/// version creates 1,048,576 threads distributed in 81 bins for an
/// average of 12,945 threads per bin. The distribution of the threads
/// in the bins was quite uniform." (§4.2)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    per_bin: Vec<u64>,
}

impl SchedulerStats {
    pub(crate) fn from_bin_counts(per_bin: Vec<u64>) -> Self {
        SchedulerStats { per_bin }
    }

    /// Total scheduled threads.
    pub fn threads(&self) -> u64 {
        self.per_bin.iter().sum()
    }

    /// Number of allocated bins.
    pub fn bins(&self) -> usize {
        self.per_bin.len()
    }

    /// Thread count of each bin, in allocation order.
    pub fn threads_per_bin(&self) -> &[u64] {
        &self.per_bin
    }

    /// Mean threads per bin (0 if no bins).
    pub fn avg_threads_per_bin(&self) -> f64 {
        if self.per_bin.is_empty() {
            0.0
        } else {
            self.threads() as f64 / self.per_bin.len() as f64
        }
    }

    /// Largest bin (0 if no bins).
    pub fn max_threads_per_bin(&self) -> u64 {
        self.per_bin.iter().copied().max().unwrap_or(0)
    }

    /// Smallest bin (0 if no bins).
    pub fn min_threads_per_bin(&self) -> u64 {
        self.per_bin.iter().copied().min().unwrap_or(0)
    }

    /// Coefficient of variation of the bin sizes (standard deviation ÷
    /// mean; 0 for perfectly uniform distributions). The paper
    /// contrasts matmul's "quite uniform" distribution with N-body's
    /// "much less uniform" one; this quantifies that.
    pub fn bin_size_cv(&self) -> f64 {
        let n = self.per_bin.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.avg_threads_per_bin();
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .per_bin
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }
}

impl fmt::Display for SchedulerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} threads in {} bins (avg {:.0}/bin, max {}, cv {:.2})",
            self.threads(),
            self.bins(),
            self.avg_threads_per_bin(),
            self.max_threads_per_bin(),
            self.bin_size_cv()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_distribution() {
        let s = SchedulerStats::from_bin_counts(vec![10, 10, 10, 10]);
        assert_eq!(s.threads(), 40);
        assert_eq!(s.bins(), 4);
        assert_eq!(s.avg_threads_per_bin(), 10.0);
        assert_eq!(s.max_threads_per_bin(), 10);
        assert_eq!(s.min_threads_per_bin(), 10);
        assert_eq!(s.bin_size_cv(), 0.0);
    }

    #[test]
    fn skewed_distribution_has_positive_cv() {
        let s = SchedulerStats::from_bin_counts(vec![1, 1, 1, 97]);
        assert_eq!(s.threads(), 100);
        assert!(s.bin_size_cv() > 1.0);
        assert_eq!(s.max_threads_per_bin(), 97);
        assert_eq!(s.min_threads_per_bin(), 1);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SchedulerStats::default();
        assert_eq!(s.threads(), 0);
        assert_eq!(s.bins(), 0);
        assert_eq!(s.avg_threads_per_bin(), 0.0);
        assert_eq!(s.bin_size_cv(), 0.0);
    }

    #[test]
    fn display_summarizes() {
        let s = SchedulerStats::from_bin_counts(vec![5, 15]);
        let text = s.to_string();
        assert!(text.contains("20 threads in 2 bins"), "{text}");
    }

    #[test]
    fn worker_stats_aggregate_and_display() {
        let workers = [
            WorkerStats {
                bins_executed: 1,
                threads_executed: 4,
                units: 900,
                steals_attempted: 3,
                steals_succeeded: 1,
            },
            WorkerStats {
                bins_executed: 1,
                threads_executed: 4,
                units: 700,
                steals_attempted: 2,
                steals_succeeded: 0,
            },
        ];
        let total: WorkerStats = workers.iter().copied().sum();
        assert_eq!(total.threads_executed, 8);
        assert_eq!(total.units, 1600);
        assert_eq!(total.steals_attempted, 5);
        assert_eq!(total.steals_succeeded, 1);
        let text = workers[0].to_string();
        assert!(text.contains("900 units, 1/3 steals"), "{text}");
    }

    #[test]
    fn run_stats_display() {
        let r = RunStats {
            threads_run: 7,
            bins_visited: 3,
        };
        assert_eq!(r.to_string(), "7 threads in 3 bins");
    }
}
