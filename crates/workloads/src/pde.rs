//! The PDE kernel of §4.3: red-black Gauss–Seidel relaxation on a
//! uniform 2-D mesh (the smoother of a multigrid Laplace solver), with
//! the residual computed after the final iteration.
//!
//! Three versions, as in Table 4:
//!
//! * [`regular`] — one red sweep over the whole grid, then one black
//!   sweep, per iteration; residual in a separate final pass. The data
//!   streams through the cache `2·iters + 1` times.
//! * [`cache_conscious`] — Douglas's line-fused variant: relaxing red
//!   points on line `i3` and black points on the trailing line
//!   `i3 − 1` in a single pass (residual fused where possible), so the
//!   data passes through the cache `iters` times. Neither KAP nor the
//!   SGI compiler can derive this transformation.
//! * [`threaded`] — the fused line pair becomes a thread: "there are
//!   ny + 1 threads to do the work each iteration", forked with a 1-D
//!   hint (the line's base address) and run per iteration.
//!
//! All three versions perform each point update with exactly the same
//! operand values (the fusion is dependence-preserving), so their
//! results agree bitwise; the unit tests assert this.

use crate::overhead::{FORK_INSTRUCTIONS, RUN_INSTRUCTIONS};
use crate::WorkloadReport;
use locality_sched::{
    BinPolicy, Hints, RunMode, Scheduler, SchedulerConfig, SchedulerStats, TopologyPolicy,
};
use memtrace::{
    AccessKind, AddressSpace, MatrixLayout, Stream, StreamRun, TraceSink, TracedMatrix,
};

/// Instructions per point relaxation in the regular version's sweeps.
pub const RELAX_INSTRUCTIONS: u64 = 14;
/// Instructions per point relaxation in the fused versions (tighter
/// loop structure; the paper measures the cache-conscious version at
/// ~9% fewer instruction fetches).
pub const RELAX_INSTRUCTIONS_FUSED: u64 = 13;
/// Instructions per residual point.
pub const RESIDUAL_INSTRUCTIONS: u64 = 16;

/// Grid state for the PDE kernel: solution `u`, right-hand side `b`,
/// and residual `r`, all `n × n` column-major with a fixed zero
/// boundary.
#[derive(Clone, Debug)]
pub struct PdeData {
    /// Current solution estimate (zero-initialized).
    pub u: TracedMatrix,
    /// Right-hand side.
    pub b: TracedMatrix,
    /// Residual, written by the final pass.
    pub r: TracedMatrix,
    n: usize,
}

impl PdeData {
    /// Allocates an `n × n` problem with a deterministic pseudo-random
    /// right-hand side.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (no interior points).
    pub fn new(space: &mut AddressSpace, n: usize, seed: u64) -> Self {
        assert!(n >= 3, "grid must have interior points");
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2048) as f64 / 2048.0 - 0.5
        };
        let u = TracedMatrix::zeros(space, n, n, MatrixLayout::ColMajor);
        let b = TracedMatrix::from_fn(space, n, n, MatrixLayout::ColMajor, |_, _| next());
        let r = TracedMatrix::zeros(space, n, n, MatrixLayout::ColMajor);
        PdeData { u, b, r, n }
    }

    /// Grid dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Zeroes `u` and `r` (untraced) so another version can rerun.
    pub fn reset(&mut self) {
        for i in 0..self.n {
            for j in 0..self.n {
                self.u.set_untraced(i, j, 0.0);
                self.r.set_untraced(i, j, 0.0);
            }
        }
    }

    /// Result checksum over `u` and `r`.
    pub fn checksum(&self) -> f64 {
        self.u.checksum() + self.r.checksum()
    }

    /// Maximum absolute residual over the interior (untraced); a
    /// convergence measure for tests.
    pub fn residual_inf_norm(&self) -> f64 {
        let mut max = 0.0f64;
        for i3 in 1..self.n - 1 {
            for i2 in 1..self.n - 1 {
                max = max.max(self.r.at(i2, i3).abs());
            }
        }
        max
    }
}

/// Is the point (i2, i3) red? (Checkerboard colouring by coordinate
/// parity.)
#[inline]
fn is_red(i2: usize, i3: usize) -> bool {
    (i2 + i3).is_multiple_of(2)
}

/// `m`'s column `i3` from row `i2` on, every `step`-th row, as a
/// stream of `kind` references.
#[inline]
fn column_from(m: &TracedMatrix, i2: usize, i3: usize, step: u64, kind: AccessKind) -> Stream {
    let column = m.col_stream(i3, kind);
    Stream {
        base: m.addr_of(i2, i3),
        stride: step * column.stride,
        ..column
    }
}

/// Relaxes all points of the given colour on line (column) `i3`, each
/// `u[i2,i3] = ¼ (b[i2,i3] − u[i2−1,i3] − u[i2+1,i3] − u[i2,i3−1] − u[i2,i3+1])`.
///
/// The line's references are one run record: per point, the five reads
/// in that order and the write of `u[i2,i3]`, then `instr`
/// instructions. The values move through the untraced accessors, in
/// the same order and with the same floating-point operations.
#[inline]
fn relax_line<S: TraceSink>(data: &mut PdeData, i3: usize, red: bool, instr: u64, sink: &mut S) {
    let n = data.n;
    let start = 1 + usize::from(is_red(1, i3) != red);
    let points = (n - 1 - start).div_ceil(2);
    if points == 0 {
        return;
    }
    let (u, b) = (&mut data.u, &data.b);
    let read = |m: &TracedMatrix, i2, i3| column_from(m, i2, i3, 2, AccessKind::Read);
    let streams = [
        read(b, start, i3),
        read(u, start - 1, i3),
        read(u, start + 1, i3),
        read(u, start, i3 - 1),
        read(u, start, i3 + 1),
        column_from(u, start, i3, 2, AccessKind::Write),
    ];
    sink.run(&StreamRun::new(&streams, 1, points as u64, instr));
    for i2 in (start..n - 1).step_by(2) {
        let value = 0.25
            * (b.at(i2, i3)
                - u.at(i2 - 1, i3)
                - u.at(i2 + 1, i3)
                - u.at(i2, i3 - 1)
                - u.at(i2, i3 + 1));
        u.set_untraced(i2, i3, value);
    }
}

/// Computes the residual
/// `r = b − 4u − u[↑] − u[↓] − u[←] − u[→]` for every interior point of
/// line `i3`: one run record of seven streams (`b`, the centre and its
/// four neighbours read, `r` written), [`RESIDUAL_INSTRUCTIONS`] a
/// point, with the values computed through the untraced accessors.
#[inline]
fn residual_line<S: TraceSink>(data: &mut PdeData, i3: usize, sink: &mut S) {
    let n = data.n;
    let (u, b, r) = (&data.u, &data.b, &mut data.r);
    let read = |m: &TracedMatrix, i2, i3| column_from(m, i2, i3, 1, AccessKind::Read);
    let streams = [
        read(b, 1, i3),
        read(u, 1, i3),
        read(u, 0, i3),
        read(u, 2, i3),
        read(u, 1, i3 - 1),
        read(u, 1, i3 + 1),
        column_from(r, 1, i3, 1, AccessKind::Write),
    ];
    sink.run(&StreamRun::new(
        &streams,
        1,
        (n - 2) as u64,
        RESIDUAL_INSTRUCTIONS,
    ));
    for i2 in 1..n - 1 {
        let value = b.at(i2, i3)
            - 4.0 * u.at(i2, i3)
            - u.at(i2 - 1, i3)
            - u.at(i2 + 1, i3)
            - u.at(i2, i3 - 1)
            - u.at(i2, i3 + 1);
        r.set_untraced(i2, i3, value);
    }
}

/// The regular version: full red sweep, full black sweep, per
/// iteration; residual afterwards.
pub fn regular<S: TraceSink>(data: &mut PdeData, iters: usize, sink: &mut S) -> WorkloadReport {
    let n = data.n;
    for _ in 0..iters {
        for red in [true, false] {
            for i3 in 1..n - 1 {
                relax_line(data, i3, red, RELAX_INSTRUCTIONS, sink);
            }
        }
    }
    for i3 in 1..n - 1 {
        residual_line(data, i3, sink);
    }
    WorkloadReport::unthreaded("pde/regular", data.checksum())
}

/// One step of the fused schedule: red on line `i3`, black on the
/// trailing line `i3 − 1`, and (on the last iteration) the residual on
/// line `i3 − 2`, whose neighbours are final by then.
#[inline]
fn fused_step<S: TraceSink>(data: &mut PdeData, i3: usize, with_residual: bool, sink: &mut S) {
    let n = data.n;
    if (1..n - 1).contains(&i3) {
        relax_line(data, i3, true, RELAX_INSTRUCTIONS_FUSED, sink);
    }
    if i3 >= 2 && i3 - 1 < n - 1 {
        relax_line(data, i3 - 1, false, RELAX_INSTRUCTIONS_FUSED, sink);
    }
    if with_residual && i3 >= 3 && i3 - 2 < n - 1 {
        residual_line(data, i3 - 2, sink);
    }
}

/// The cache-conscious version (Douglas): line-fused red/black sweeps
/// so the data passes through the cache once per iteration, with the
/// residual fused into the last iteration.
pub fn cache_conscious<S: TraceSink>(
    data: &mut PdeData,
    iters: usize,
    sink: &mut S,
) -> WorkloadReport {
    let n = data.n;
    for it in 0..iters {
        let last = it + 1 == iters;
        for i3 in 1..=n {
            fused_step(data, i3, last, sink);
        }
    }
    WorkloadReport::unthreaded("pde/cache-conscious", data.checksum())
}

struct PdeCtx<'a, S> {
    data: &'a mut PdeData,
    sink: &'a mut S,
}

fn pde_thread<S: TraceSink>(ctx: &mut PdeCtx<'_, S>, i3: usize, with_residual: usize) {
    ctx.sink.instructions(RUN_INSTRUCTIONS);
    fused_step(ctx.data, i3, with_residual != 0, ctx.sink);
}

/// The threaded version: one thread per fused line pair (`n` threads
/// per iteration), hinted by the line's base address, forked and run
/// once per iteration. Each iteration's run is the barrier the next
/// iteration depends on, so the solver needs no dependence mechanism
/// beyond the paper's run-to-completion threads (§6).
///
/// The paper notes this version "is programmed with a specific
/// ordering (red-black) which determines when an element of u is
/// updated": correctness relies on bins being visited in allocation
/// order (the package default), which for monotonically increasing
/// line addresses reproduces the fused sequential order exactly.
pub fn threaded<S: TraceSink>(
    data: &mut PdeData,
    iters: usize,
    config: SchedulerConfig,
    sink: &mut S,
) -> WorkloadReport {
    let policy = TopologyPolicy::from_config(&config);
    threaded_with(data, iters, config, policy, sink)
}

/// [`threaded`] under an arbitrary [`BinPolicy`]. The red-black
/// ordering constraint carries over: a policy is only correct here if,
/// combined with the allocation-order tour, it drains threads in
/// ascending line order (true for the block ladder at any depth, whose
/// keys are monotone in the single line-address hint).
pub fn threaded_with<S: TraceSink, P: BinPolicy>(
    data: &mut PdeData,
    iters: usize,
    config: SchedulerConfig,
    policy: P,
    sink: &mut S,
) -> WorkloadReport {
    let n = data.n;
    let mut threads = 0u64;
    let mut last_stats: Option<SchedulerStats> = None;
    for it in 0..iters {
        let last = it + 1 == iters;
        let mut sched: Scheduler<PdeCtx<'_, S>, P> = Scheduler::with_policy(config, policy.clone());
        sched.trace_package_memory();
        for i3 in 1..=n {
            let hint_line = i3.min(n - 1);
            sched.fork_traced(
                pde_thread::<S>,
                i3,
                usize::from(last),
                Hints::one(data.u.col_addr(hint_line)),
                sink,
            );
            sink.instructions(FORK_INSTRUCTIONS);
        }
        let stats = sched.stats();
        threads += stats.threads();
        if last {
            last_stats = Some(stats);
        }
        let mut ctx = PdeCtx { data, sink };
        sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut *c.sink);
    }
    let mut report = WorkloadReport::threaded(
        "pde/threaded",
        data.checksum(),
        last_stats.unwrap_or_default(),
    );
    report.threads = threads;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{CountingSink, NullSink};

    fn data(n: usize) -> PdeData {
        let mut space = AddressSpace::new();
        PdeData::new(&mut space, n, 7)
    }

    fn config() -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(1 << 12)
            .build()
            .unwrap()
    }

    fn collect_u(d: &PdeData) -> Vec<f64> {
        let n = d.n();
        (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| d.u.at(i, j))
            .collect()
    }

    fn collect_r(d: &PdeData) -> Vec<f64> {
        let n = d.n();
        (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| d.r.at(i, j))
            .collect()
    }

    #[test]
    fn all_versions_agree_bitwise() {
        let mut d = data(33);
        regular(&mut d, 5, &mut NullSink);
        let u_ref = collect_u(&d);
        let r_ref = collect_r(&d);

        d.reset();
        cache_conscious(&mut d, 5, &mut NullSink);
        assert_eq!(collect_u(&d), u_ref, "cache-conscious u differs");
        assert_eq!(collect_r(&d), r_ref, "cache-conscious r differs");

        d.reset();
        threaded(&mut d, 5, config(), &mut NullSink);
        assert_eq!(collect_u(&d), u_ref, "threaded u differs");
        assert_eq!(collect_r(&d), r_ref, "threaded r differs");
    }

    #[test]
    fn even_grid_sizes_also_agree() {
        let mut d = data(20);
        regular(&mut d, 3, &mut NullSink);
        let u_ref = collect_u(&d);
        d.reset();
        threaded(&mut d, 3, config(), &mut NullSink);
        assert_eq!(collect_u(&d), u_ref);
    }

    #[test]
    fn relaxation_reduces_residual() {
        let mut d = data(17);
        regular(&mut d, 1, &mut NullSink);
        let after_1 = d.residual_inf_norm();
        d.reset();
        regular(&mut d, 20, &mut NullSink);
        let after_20 = d.residual_inf_norm();
        assert!(
            after_20 < after_1 * 0.5,
            "Gauss-Seidel must converge: {after_1} -> {after_20}"
        );
    }

    #[test]
    fn reference_counts_match_formulas() {
        let n = 19usize;
        let iters = 3;
        let interior = ((n - 2) * (n - 2)) as u64;
        let mut d = data(n);
        let mut sink = CountingSink::new();
        regular(&mut d, iters, &mut sink);
        // 6 refs per relaxation x interior points x iters + 7 per
        // residual point.
        assert_eq!(
            sink.data_references(),
            6 * interior * iters as u64 + 7 * interior
        );
        assert_eq!(
            sink.instructions_executed(),
            RELAX_INSTRUCTIONS * interior * iters as u64 + RESIDUAL_INSTRUCTIONS * interior
        );
    }

    #[test]
    fn fused_versions_do_the_same_data_references() {
        let n = 19usize;
        let mut d = data(n);
        let mut regular_sink = CountingSink::new();
        regular(&mut d, 2, &mut regular_sink);
        d.reset();
        let mut cc_sink = CountingSink::new();
        cache_conscious(&mut d, 2, &mut cc_sink);
        assert_eq!(
            regular_sink.data_references(),
            cc_sink.data_references(),
            "fusion reorders but does not add references"
        );
        assert!(cc_sink.instructions_executed() < regular_sink.instructions_executed());
    }

    #[test]
    fn threaded_counts_threads_per_iteration() {
        let n = 17;
        let iters = 4;
        let mut d = data(n);
        let report = threaded(&mut d, iters, config(), &mut NullSink);
        assert_eq!(report.threads, (n as u64) * iters as u64);
        assert!(report.sched.is_some());
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn tiny_grid_is_rejected() {
        let mut space = AddressSpace::new();
        let _ = PdeData::new(&mut space, 2, 1);
    }
}
