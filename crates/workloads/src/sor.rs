//! Successive over-relaxation, §4.3 of the paper: the Lam/Rothberg/Wolf
//! compiler-community test case — `t` in-place sweeps of a 5-point
//! stencil over an `n × n` array.
//!
//! ```text
//! for i1 = 1 to t
//!   for i2 = 1 to n-1
//!     for i3 = 1 to n-1
//!       A[i2,i3] = 0.2 (A[i2,i3] + A[i2+1,i3] + A[i2−1,i3]
//!                        + A[i2,i3+1] + A[i2,i3−1])
//! ```
//!
//! Three versions, as in Table 6:
//!
//! * [`untiled`] — the best sequential loop order for column-major
//!   storage (sweep columns, walk each column contiguously), with the
//!   register chaining the paper's reference counts imply: 3 loads and
//!   1 store per update.
//! * [`hand_tiled`] — Lam/Rothberg/Wolf skewed tiling over all three
//!   loops (time included): both spatial loops are skewed by the sweep
//!   index and tiled `s × s` (the paper uses `s = 18`), so a tile's
//!   working set stays cache-resident across all `t` sweeps. The
//!   transformation is dependence-preserving: results are bitwise
//!   identical to [`untiled`] (asserted by tests). "The KAP and SGI
//!   compilers simply unroll the inner-most loop instead of performing
//!   tiling transformations, so we have included a hand tiled version."
//! * [`threaded`] — one thread per column *per sweep*, `t·(n−1)`
//!   threads forked up front with a 1-D hint (the column address) and
//!   run in a single `th_run`. Binning groups *all sweeps* of a column
//!   block together, so each block is swept `t` times while resident —
//!   this reorders across sweeps ("although there are data dependencies
//!   among threads, the algorithm works fine because the goal is to
//!   reach convergence"), so the result is convergence-equivalent, not
//!   bitwise equal.

use crate::overhead::{FORK_INSTRUCTIONS, RUN_INSTRUCTIONS};
use crate::WorkloadReport;
use locality_sched::{BinPolicy, Hints, RunMode, Scheduler, SchedulerConfig, TopologyPolicy};
use memtrace::{AddressSpace, MatrixLayout, TraceSink, TracedMatrix};

/// Instructions per update in the untiled (register-chained) loop.
pub const UNTILED_INSTRUCTIONS: u64 = 10;
/// Instructions per update in the tiled loop (skew bookkeeping, no
/// register chaining; the paper measures ~60% more instruction fetches
/// for the hand-tiled version).
pub const TILED_INSTRUCTIONS: u64 = 16;
/// The paper's tile size.
pub const PAPER_TILE: usize = 18;

/// The SOR array: `n × n` column-major, relaxed in place on the
/// interior `1..n−1` with fixed boundary values.
#[derive(Clone, Debug)]
pub struct SorData {
    /// The array being relaxed.
    pub a: TracedMatrix,
    n: usize,
}

impl SorData {
    /// Allocates an `n × n` array with deterministic pseudo-random
    /// contents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn new(space: &mut AddressSpace, n: usize, seed: u64) -> Self {
        assert!(n >= 3, "array must have interior points");
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 4096) as f64 / 4096.0
        };
        let a = TracedMatrix::from_fn(space, n, n, MatrixLayout::ColMajor, |_, _| next());
        SorData { a, n }
    }

    /// Array dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Snapshot of the full array (untraced), for version comparison.
    pub fn snapshot(&self) -> Vec<f64> {
        let n = self.n;
        (0..n)
            .flat_map(|j| (0..n).map(move |i| (i, j)))
            .map(|(i, j)| self.a.at(i, j))
            .collect()
    }

    /// Restores the array from a snapshot (untraced).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot has the wrong length.
    pub fn restore(&mut self, snapshot: &[f64]) {
        let n = self.n;
        assert_eq!(snapshot.len(), n * n, "snapshot length mismatch");
        let mut it = snapshot.iter();
        for j in 0..n {
            for i in 0..n {
                self.a
                    .set_untraced(i, j, *it.next().expect("length checked"));
            }
        }
    }

    /// Result checksum.
    pub fn checksum(&self) -> f64 {
        self.a.checksum()
    }

    /// Maximum absolute stencil defect `|A − 0.2·(A + 4 neighbours)|`
    /// over the interior (untraced); decreases as SOR converges, used
    /// to compare convergence quality across versions.
    pub fn defect_inf_norm(&self) -> f64 {
        let n = self.n;
        let mut max = 0.0f64;
        for i3 in 1..n - 1 {
            for i2 in 1..n - 1 {
                let c = self.a.at(i2, i3);
                let relaxed = 0.2
                    * (c + self.a.at(i2 + 1, i3)
                        + self.a.at(i2 - 1, i3)
                        + self.a.at(i2, i3 + 1)
                        + self.a.at(i2, i3 - 1));
                max = max.max((c - relaxed).abs());
            }
        }
        max
    }
}

/// Relaxes one full column with register chaining: the previous result
/// (`A[i2−1,i3]`) and the previously-read below-neighbour (`A[i2,i3]`'s
/// old value) stay in registers, so each update costs 3 loads + 1
/// store, the minimum the paper's reference counts reflect.
fn relax_column_chained<S: TraceSink>(data: &mut SorData, i3: usize, sink: &mut S) {
    let n = data.n;
    let mut above = data.a.get(0, i3, sink); // A[0,i3]: boundary, old
    let mut center = data.a.get(1, i3, sink); // A[1,i3]: old value
    for i2 in 1..n - 1 {
        let below = data.a.get(i2 + 1, i3, sink);
        let left = data.a.get(i2, i3 - 1, sink);
        let right = data.a.get(i2, i3 + 1, sink);
        let new = 0.2 * (center + below + above + right + left);
        data.a.set(i2, i3, new, sink);
        sink.instructions(UNTILED_INSTRUCTIONS);
        above = new; // becomes A[i2−1,i3] (updated) for the next row
        center = below; // the old A[i2+1,i3] becomes the next centre
    }
}

/// The untiled version: `t` sweeps, each walking columns
/// left-to-right and rows top-to-bottom within a column.
pub fn untiled<S: TraceSink>(data: &mut SorData, t: usize, sink: &mut S) -> WorkloadReport {
    let n = data.n;
    for _ in 0..t {
        for i3 in 1..n - 1 {
            relax_column_chained(data, i3, sink);
        }
    }
    WorkloadReport::unthreaded("sor/untiled", data.checksum())
}

/// One un-chained update (the tiled loop cannot chain registers across
/// its skewed iteration space): 5 loads + 1 store.
#[inline]
fn relax_point<S: TraceSink>(data: &mut SorData, i2: usize, i3: usize, sink: &mut S) {
    let c = data.a.get(i2, i3, sink);
    let below = data.a.get(i2 + 1, i3, sink);
    let above = data.a.get(i2 - 1, i3, sink);
    let right = data.a.get(i2, i3 + 1, sink);
    let left = data.a.get(i2, i3 - 1, sink);
    data.a
        .set(i2, i3, 0.2 * (c + below + above + right + left), sink);
    sink.instructions(TILED_INSTRUCTIONS);
}

/// The hand-tiled version: skew both spatial loops by the sweep index
/// (`i2' = i2 + i1`, `i3' = i3 + i1`), tile the skewed space `s × s`,
/// and run all `t` sweeps inside each tile. After skewing, every
/// dependence vector is lexicographically non-negative, so the nest is
/// fully permutable and the tiling is legal — results are bitwise
/// identical to [`untiled`].
pub fn hand_tiled<S: TraceSink>(
    data: &mut SorData,
    t: usize,
    s: usize,
    sink: &mut S,
) -> WorkloadReport {
    assert!(s >= 1, "tile size must be positive");
    let n = data.n;
    // Skewed coordinates range over [1 + i1, n - 2 + i1] for each sweep
    // i1 in 1..=t; globally [2, n - 2 + t].
    let lo = 2usize;
    let hi = n - 2 + t;
    let mut i2t = lo;
    while i2t <= hi {
        let mut i3t = lo;
        while i3t <= hi {
            for i1 in 1..=t {
                let i2_lo = i2t.max(1 + i1);
                let i2_hi = (i2t + s - 1).min(n - 2 + i1);
                let i3_lo = i3t.max(1 + i1);
                let i3_hi = (i3t + s - 1).min(n - 2 + i1);
                if i2_lo > i2_hi || i3_lo > i3_hi {
                    continue;
                }
                for i3p in i3_lo..=i3_hi {
                    for i2p in i2_lo..=i2_hi {
                        relax_point(data, i2p - i1, i3p - i1, sink);
                    }
                }
            }
            i3t += s;
        }
        i2t += s;
    }
    WorkloadReport::unthreaded("sor/hand-tiled", data.checksum())
}

struct SorCtx<'a, S> {
    data: &'a mut SorData,
    sink: &'a mut S,
}

fn sor_thread<S: TraceSink>(ctx: &mut SorCtx<'_, S>, i3: usize, _unused: usize) {
    ctx.sink.instructions(RUN_INSTRUCTIONS);
    relax_column_chained(ctx.data, i3, ctx.sink);
}

/// The threaded version: `t·(n−2)` column-relaxation threads forked up
/// front — `th_fork(Compute, i3, 0, A(0,i3−1), …)` — and run in a
/// single `th_run`. Each bin holds every sweep of a block of columns,
/// so the block stays L2-resident for all `t` sweeps.
pub fn threaded<S: TraceSink>(
    data: &mut SorData,
    t: usize,
    config: SchedulerConfig,
    sink: &mut S,
) -> WorkloadReport {
    let policy = TopologyPolicy::from_config(&config);
    threaded_with(data, t, config, policy, sink)
}

/// [`threaded`] under an arbitrary [`BinPolicy`]: same hints, different
/// hints→bin mapping. Like the flat version, convergence tolerates any
/// drain order (the paper's own observation about threaded SOR).
pub fn threaded_with<S: TraceSink, P: BinPolicy>(
    data: &mut SorData,
    t: usize,
    config: SchedulerConfig,
    policy: P,
    sink: &mut S,
) -> WorkloadReport {
    let n = data.n;
    let sched_stats = {
        let mut sched: Scheduler<SorCtx<'_, S>, P> = Scheduler::with_policy(config, policy);
        sched.trace_package_memory();
        for _i1 in 1..=t {
            for i3 in 1..n - 1 {
                sched.fork_traced(
                    sor_thread::<S>,
                    i3,
                    0,
                    Hints::one(data.a.col_addr(i3)),
                    sink,
                );
                sink.instructions(FORK_INSTRUCTIONS);
            }
        }
        let stats = sched.stats();
        let mut ctx = SorCtx { data, sink };
        sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut *c.sink);
        stats
    };
    WorkloadReport::threaded("sor/threaded", data.checksum(), sched_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{CountingSink, NullSink};

    fn data(n: usize) -> SorData {
        let mut space = AddressSpace::new();
        SorData::new(&mut space, n, 99)
    }

    #[test]
    fn hand_tiled_is_bitwise_identical_to_untiled() {
        for (n, t, s) in [(21, 4, 3), (32, 7, 5), (17, 1, 18), (19, 10, 4)] {
            let mut d = data(n);
            let initial = d.snapshot();
            untiled(&mut d, t, &mut NullSink);
            let reference = d.snapshot();
            d.restore(&initial);
            hand_tiled(&mut d, t, s, &mut NullSink);
            assert_eq!(d.snapshot(), reference, "n={n} t={t} s={s}");
        }
    }

    #[test]
    fn threaded_converges_like_untiled() {
        let n = 33;
        let t = 12;
        let mut d = data(n);
        let initial = d.snapshot();
        let start_defect = d.defect_inf_norm();
        untiled(&mut d, t, &mut NullSink);
        let untiled_defect = d.defect_inf_norm();

        d.restore(&initial);
        let config = SchedulerConfig::builder().block_size(512).build().unwrap();
        threaded(&mut d, t, config, &mut NullSink);
        let threaded_defect = d.defect_inf_norm();

        assert!(untiled_defect < start_defect * 0.2);
        // The paper: reordering is fine "because the goal is to reach
        // convergence". Accept the same order of magnitude.
        assert!(
            threaded_defect < start_defect * 0.2,
            "threaded failed to converge: start {start_defect}, threaded {threaded_defect}"
        );
    }

    #[test]
    fn threaded_with_one_bin_is_bitwise_identical() {
        // If every column lands in a single bin, the threaded execution
        // order degenerates to fork order = the untiled order.
        let n = 17;
        let t = 3;
        let mut d = data(n);
        let initial = d.snapshot();
        untiled(&mut d, t, &mut NullSink);
        let reference = d.snapshot();
        d.restore(&initial);
        let config = SchedulerConfig::builder()
            .block_size(1 << 40)
            .build()
            .unwrap();
        threaded(&mut d, t, config, &mut NullSink);
        assert_eq!(d.snapshot(), reference);
    }

    #[test]
    fn untiled_reference_counts_match_paper() {
        // 4 references (3 loads + 1 store) and 10 instructions per
        // update, plus 2 loads per column prologue.
        let n = 20usize;
        let t = 3;
        let mut d = data(n);
        let mut sink = CountingSink::new();
        untiled(&mut d, t, &mut sink);
        let cols = (n - 2) as u64;
        let updates = cols * cols * t as u64;
        assert_eq!(sink.data_references(), 4 * updates + 2 * cols * t as u64);
        assert_eq!(sink.writes(), updates);
        assert_eq!(sink.instructions_executed(), UNTILED_INSTRUCTIONS * updates);
    }

    #[test]
    fn tiled_does_more_references_and_instructions() {
        let n = 20usize;
        let t = 3;
        let mut d = data(n);
        let mut untiled_sink = CountingSink::new();
        let initial = d.snapshot();
        untiled(&mut d, t, &mut untiled_sink);
        d.restore(&initial);
        let mut tiled_sink = CountingSink::new();
        hand_tiled(&mut d, t, 6, &mut tiled_sink);
        assert!(tiled_sink.data_references() > untiled_sink.data_references());
        assert!(tiled_sink.instructions_executed() > untiled_sink.instructions_executed());
        // Same number of updates either way.
        assert_eq!(tiled_sink.writes(), untiled_sink.writes());
    }

    #[test]
    fn threaded_thread_count_matches_paper_formula() {
        // t (n-2) threads — the paper's t(n-1) with its 1-based
        // convention.
        let n = 12;
        let t = 5;
        let mut d = data(n);
        let config = SchedulerConfig::builder().block_size(256).build().unwrap();
        let report = threaded(&mut d, t, config, &mut NullSink);
        assert_eq!(report.threads, (t * (n - 2)) as u64);
        let sched = report.sched.unwrap();
        assert!(sched.bins() > 1, "small blocks must yield several bins");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut d = data(8);
        let snap = d.snapshot();
        untiled(&mut d, 2, &mut NullSink);
        assert_ne!(d.snapshot(), snap);
        d.restore(&snap);
        assert_eq!(d.snapshot(), snap);
    }
}
