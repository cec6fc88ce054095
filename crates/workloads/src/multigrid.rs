//! A multigrid V-cycle Poisson solver — the surrounding application the
//! paper's PDE kernel is "meant to be nested inside" (§4.3: "The first
//! is meant to be nested inside a multigrid partial differential
//! equation solver … When multigrid is used, i > 1"). The paper
//! benchmarks only the smoother; this module supplies the full solver,
//! with the smoother in each of the paper's three flavours.
//!
//! Standard components on the 5-point Laplacian (`4u − Σ neighbours =
//! b`): red-black Gauss–Seidel smoothing, full-weighting restriction of
//! the residual, bilinear prolongation of the correction, and a
//! recursively-smoothed coarsest level. All three smoothers perform
//! each point update with identical operands, so whole V-cycles agree
//! bitwise across versions.

use crate::overhead::{FORK_INSTRUCTIONS, RUN_INSTRUCTIONS};
use locality_sched::{Hints, RunMode, Scheduler, SchedulerConfig};
use memtrace::{AddressSpace, MatrixLayout, TraceSink, TracedMatrix};

/// Instructions per smoothing update.
const SMOOTH_INSTRUCTIONS: u64 = 14;
/// Instructions per residual point.
const RESIDUAL_INSTRUCTIONS: u64 = 16;
/// Instructions per restriction point.
const RESTRICT_INSTRUCTIONS: u64 = 20;
/// Instructions per prolongation point.
const PROLONG_INSTRUCTIONS: u64 = 12;

/// Which smoother the V-cycle uses at every level — the paper's three
/// PDE versions.
#[derive(Clone, Copy, Debug)]
pub enum Smoother {
    /// Full red sweep then full black sweep (paper: *regular*).
    Regular,
    /// Line-fused red/black sweeps (paper: *cache-conscious*).
    CacheConscious,
    /// One locality-scheduled thread per fused line pair (paper:
    /// *threaded*), with the given scheduler configuration.
    Threaded(SchedulerConfig),
}

/// One grid level: solution, right-hand side, residual.
#[derive(Clone, Debug)]
struct Level {
    u: TracedMatrix,
    b: TracedMatrix,
    r: TracedMatrix,
    n: usize,
}

impl Level {
    fn new(space: &mut AddressSpace, n: usize) -> Self {
        Level {
            u: TracedMatrix::zeros(space, n, n, MatrixLayout::ColMajor),
            b: TracedMatrix::zeros(space, n, n, MatrixLayout::ColMajor),
            r: TracedMatrix::zeros(space, n, n, MatrixLayout::ColMajor),
            n,
        }
    }
}

/// A multigrid hierarchy for `−∇²u = f` on the unit square with zero
/// boundary, discretized on an `n × n` grid (`n = 2^k + 1`).
///
/// # Examples
///
/// ```
/// use memtrace::{AddressSpace, NullSink};
/// use workloads::multigrid::{Multigrid, Smoother};
///
/// let mut space = AddressSpace::new();
/// let mut mg = Multigrid::new(&mut space, 33, 7);
/// let before = mg.residual_norm(&mut NullSink);
/// for _ in 0..4 {
///     mg.v_cycle(2, 2, Smoother::CacheConscious, &mut NullSink);
/// }
/// assert!(mg.residual_norm(&mut NullSink) < before / 100.0);
/// ```
#[derive(Clone, Debug)]
pub struct Multigrid {
    levels: Vec<Level>,
}

impl Multigrid {
    /// Builds the hierarchy for a fine grid of dimension `n`
    /// (`n = 2^k + 1`), with a deterministic pseudo-random right-hand
    /// side from `seed`; coarser levels halve down to 3.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `n - 1` is not a power of two.
    pub fn new(space: &mut AddressSpace, n: usize, seed: u64) -> Self {
        assert!(n >= 3, "grid must have interior points");
        assert!(
            (n - 1).is_power_of_two(),
            "multigrid needs n = 2^k + 1, got {n}"
        );
        let mut levels = Vec::new();
        let mut size = n;
        while size >= 3 {
            levels.push(Level::new(space, size));
            if size == 3 {
                break;
            }
            size = (size - 1) / 2 + 1;
        }
        // Fine-level right-hand side.
        let mut state = seed | 1;
        let fine = &mut levels[0];
        for i3 in 1..n - 1 {
            for i2 in 1..n - 1 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                fine.b
                    .set_untraced(i2, i3, (state % 2048) as f64 / 2048.0 - 0.5);
            }
        }
        Multigrid { levels }
    }

    /// Number of levels in the hierarchy.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Fine-grid dimension.
    pub fn n(&self) -> usize {
        self.levels[0].n
    }

    /// Fine-grid solution value (untraced test helper).
    pub fn solution_at(&self, i: usize, j: usize) -> f64 {
        self.levels[0].u.at(i, j)
    }

    /// Sum over the fine solution — a cheap checksum.
    pub fn checksum(&self) -> f64 {
        self.levels[0].u.checksum()
    }

    /// Computes the fine-grid residual (traced) and returns its
    /// infinity norm.
    pub fn residual_norm<S: TraceSink>(&mut self, sink: &mut S) -> f64 {
        residual(&mut self.levels[0], sink);
        let level = &self.levels[0];
        let mut max = 0.0f64;
        for i3 in 1..level.n - 1 {
            for i2 in 1..level.n - 1 {
                max = max.max(level.r.at(i2, i3).abs());
            }
        }
        max
    }

    /// Runs one V-cycle: `pre` smoothing sweeps down, `post` sweeps up.
    pub fn v_cycle<S: TraceSink>(
        &mut self,
        pre: usize,
        post: usize,
        smoother: Smoother,
        sink: &mut S,
    ) {
        self.descend(0, pre, post, smoother, sink);
    }

    fn descend<S: TraceSink>(
        &mut self,
        depth: usize,
        pre: usize,
        post: usize,
        smoother: Smoother,
        sink: &mut S,
    ) {
        if depth + 1 == self.levels.len() {
            // Coarsest level: smooth hard (the grid is tiny).
            smooth(&mut self.levels[depth], 30, smoother, sink);
            return;
        }
        smooth(&mut self.levels[depth], pre, smoother, sink);
        residual(&mut self.levels[depth], sink);
        let (fine, coarse) = {
            let (a, b) = self.levels.split_at_mut(depth + 1);
            (&mut a[depth], &mut b[0])
        };
        restrict(fine, coarse, sink);
        self.descend(depth + 1, pre, post, smoother, sink);
        let (fine, coarse) = {
            let (a, b) = self.levels.split_at_mut(depth + 1);
            (&mut a[depth], &mut b[0])
        };
        prolong_add(coarse, fine, sink);
        smooth(&mut self.levels[depth], post, smoother, sink);
    }
}

/// Is the point (i2, i3) red?
#[inline]
fn is_red(i2: usize, i3: usize) -> bool {
    (i2 + i3).is_multiple_of(2)
}

/// One Gauss–Seidel update of the 5-point Laplacian:
/// `u = ¼ (b + up + down + left + right)`.
#[inline]
fn relax_point<S: TraceSink>(level: &mut Level, i2: usize, i3: usize, sink: &mut S) {
    let b = level.b.get(i2, i3, sink);
    let up = level.u.get(i2 - 1, i3, sink);
    let down = level.u.get(i2 + 1, i3, sink);
    let left = level.u.get(i2, i3 - 1, sink);
    let right = level.u.get(i2, i3 + 1, sink);
    level
        .u
        .set(i2, i3, 0.25 * (b + up + down + left + right), sink);
    sink.instructions(SMOOTH_INSTRUCTIONS);
}

#[inline]
fn relax_line<S: TraceSink>(level: &mut Level, i3: usize, red: bool, sink: &mut S) {
    let n = level.n;
    let start = 1 + usize::from(is_red(1, i3) != red);
    let mut i2 = start;
    while i2 < n - 1 {
        relax_point(level, i2, i3, sink);
        i2 += 2;
    }
}

/// One fused step: red line `i3`, black line `i3 − 1` — the
/// cache-conscious/threaded schedule, dependence-equivalent to the
/// regular sweeps.
#[inline]
fn fused_step<S: TraceSink>(level: &mut Level, i3: usize, sink: &mut S) {
    let n = level.n;
    if (1..n - 1).contains(&i3) {
        relax_line(level, i3, true, sink);
    }
    if i3 >= 2 && i3 - 1 < n - 1 {
        relax_line(level, i3 - 1, false, sink);
    }
}

struct MgCtx<'a, S> {
    level: &'a mut Level,
    sink: &'a mut S,
}

fn mg_thread<S: TraceSink>(ctx: &mut MgCtx<'_, S>, i3: usize, _unused: usize) {
    ctx.sink.instructions(RUN_INSTRUCTIONS);
    fused_step(ctx.level, i3, ctx.sink);
}

fn smooth<S: TraceSink>(level: &mut Level, iters: usize, smoother: Smoother, sink: &mut S) {
    let n = level.n;
    match smoother {
        Smoother::Regular => {
            for _ in 0..iters {
                for red in [true, false] {
                    for i3 in 1..n - 1 {
                        relax_line(level, i3, red, sink);
                    }
                }
            }
        }
        Smoother::CacheConscious => {
            for _ in 0..iters {
                for i3 in 1..=n {
                    fused_step(level, i3, sink);
                }
            }
        }
        Smoother::Threaded(config) => {
            for _ in 0..iters {
                let mut sched = Scheduler::<MgCtx<'_, S>>::new(config);
                sched.trace_package_memory();
                for i3 in 1..=n {
                    let hint_line = i3.min(n - 1);
                    sched.fork_traced(
                        mg_thread::<S>,
                        i3,
                        0,
                        Hints::one(level.u.col_addr(hint_line)),
                        sink,
                    );
                    sink.instructions(FORK_INSTRUCTIONS);
                }
                let mut ctx = MgCtx { level, sink };
                sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut *c.sink);
            }
        }
    }
}

/// `r = b − (4u − Σ neighbours)` over the interior.
fn residual<S: TraceSink>(level: &mut Level, sink: &mut S) {
    let n = level.n;
    for i3 in 1..n - 1 {
        for i2 in 1..n - 1 {
            let b = level.b.get(i2, i3, sink);
            let c = level.u.get(i2, i3, sink);
            let up = level.u.get(i2 - 1, i3, sink);
            let down = level.u.get(i2 + 1, i3, sink);
            let left = level.u.get(i2, i3 - 1, sink);
            let right = level.u.get(i2, i3 + 1, sink);
            level
                .r
                .set(i2, i3, b - (4.0 * c - up - down - left - right), sink);
            sink.instructions(RESIDUAL_INSTRUCTIONS);
        }
    }
}

/// Full-weighting restriction of the fine residual into the coarse
/// right-hand side; the coarse solution starts at zero.
fn restrict<S: TraceSink>(fine: &mut Level, coarse: &mut Level, sink: &mut S) {
    let nc = coarse.n;
    for j in 0..nc {
        for i in 0..nc {
            coarse.u.set(i, j, 0.0, sink);
        }
    }
    for j in 1..nc - 1 {
        for i in 1..nc - 1 {
            let (fi, fj) = (2 * i, 2 * j);
            let center = fine.r.get(fi, fj, sink);
            let edges = fine.r.get(fi - 1, fj, sink)
                + fine.r.get(fi + 1, fj, sink)
                + fine.r.get(fi, fj - 1, sink)
                + fine.r.get(fi, fj + 1, sink);
            let corners = fine.r.get(fi - 1, fj - 1, sink)
                + fine.r.get(fi - 1, fj + 1, sink)
                + fine.r.get(fi + 1, fj - 1, sink)
                + fine.r.get(fi + 1, fj + 1, sink);
            // Full weighting, scaled by 4 (the coarse mesh width is 2h,
            // and b absorbs the h² of the discrete operator).
            coarse.b.set(
                i,
                j,
                4.0 * (4.0 * center + 2.0 * edges + corners) / 16.0,
                sink,
            );
            sink.instructions(RESTRICT_INSTRUCTIONS);
        }
    }
}

/// Bilinear prolongation of the coarse correction, added into the fine
/// solution.
fn prolong_add<S: TraceSink>(coarse: &mut Level, fine: &mut Level, sink: &mut S) {
    let nf = fine.n;
    for fj in 1..nf - 1 {
        for fi in 1..nf - 1 {
            let (ci, cr) = (fi / 2, fi % 2);
            let (cj, cc) = (fj / 2, fj % 2);
            let correction = match (cr, cc) {
                (0, 0) => coarse.u.get(ci, cj, sink),
                (1, 0) => 0.5 * (coarse.u.get(ci, cj, sink) + coarse.u.get(ci + 1, cj, sink)),
                (0, 1) => 0.5 * (coarse.u.get(ci, cj, sink) + coarse.u.get(ci, cj + 1, sink)),
                _ => {
                    0.25 * (coarse.u.get(ci, cj, sink)
                        + coarse.u.get(ci + 1, cj, sink)
                        + coarse.u.get(ci, cj + 1, sink)
                        + coarse.u.get(ci + 1, cj + 1, sink))
                }
            };
            let current = fine.u.get(fi, fj, sink);
            fine.u.set(fi, fj, current + correction, sink);
            sink.instructions(PROLONG_INSTRUCTIONS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::NullSink;

    fn mg(n: usize) -> Multigrid {
        let mut space = AddressSpace::new();
        Multigrid::new(&mut space, n, 5)
    }

    #[test]
    fn hierarchy_has_the_right_depth() {
        let m = mg(65);
        assert_eq!(m.levels(), 6); // 65, 33, 17, 9, 5, 3
        assert_eq!(m.n(), 65);
    }

    #[test]
    fn v_cycles_converge_fast() {
        let mut m = mg(65);
        let initial = m.residual_norm(&mut NullSink);
        m.v_cycle(2, 2, Smoother::CacheConscious, &mut NullSink);
        let after_one = m.residual_norm(&mut NullSink);
        assert!(
            after_one < initial / 4.0,
            "one V-cycle: {initial} -> {after_one}"
        );
        for _ in 0..5 {
            m.v_cycle(2, 2, Smoother::CacheConscious, &mut NullSink);
        }
        let after_six = m.residual_norm(&mut NullSink);
        assert!(
            after_six < initial / 1e4,
            "six V-cycles: {initial} -> {after_six}"
        );
    }

    #[test]
    fn v_cycle_beats_plain_smoothing_at_equal_sweeps() {
        // One V-cycle does ~2(pre+post) sweeps of work across levels;
        // give plain smoothing many more fine-grid sweeps and still
        // lose.
        let mut plain = mg(65);
        let initial = plain.residual_norm(&mut NullSink);
        smooth(
            &mut plain.levels[0],
            20,
            Smoother::CacheConscious,
            &mut NullSink,
        );
        let smoothed = plain.residual_norm(&mut NullSink);

        let mut cycled = mg(65);
        cycled.v_cycle(2, 2, Smoother::CacheConscious, &mut NullSink);
        let after_cycle = cycled.residual_norm(&mut NullSink);
        assert!(
            after_cycle < smoothed,
            "V-cycle {after_cycle} vs 20 sweeps {smoothed} (from {initial})"
        );
    }

    #[test]
    fn all_smoothers_agree_bitwise() {
        let reference = {
            let mut m = mg(33);
            m.v_cycle(2, 2, Smoother::Regular, &mut NullSink);
            m.v_cycle(2, 2, Smoother::Regular, &mut NullSink);
            m
        };
        for smoother in [
            Smoother::CacheConscious,
            Smoother::Threaded(SchedulerConfig::builder().block_size(4096).build().unwrap()),
        ] {
            let mut m = mg(33);
            m.v_cycle(2, 2, smoother, &mut NullSink);
            m.v_cycle(2, 2, smoother, &mut NullSink);
            for i in 0..33 {
                for j in 0..33 {
                    assert_eq!(
                        m.solution_at(i, j).to_bits(),
                        reference.solution_at(i, j).to_bits(),
                        "({i},{j}) under {smoother:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_cycle_emits_references() {
        use memtrace::CountingSink;
        let mut m = mg(33);
        let mut sink = CountingSink::new();
        m.v_cycle(1, 1, Smoother::Regular, &mut sink);
        assert!(sink.data_references() > 33 * 33 * 4);
        assert!(sink.instructions_executed() > 0);
    }

    #[test]
    #[should_panic(expected = "2^k + 1")]
    fn rejects_bad_grid_size() {
        let mut space = AddressSpace::new();
        let _ = Multigrid::new(&mut space, 40, 1);
    }
}
