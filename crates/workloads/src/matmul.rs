//! Matrix multiplication, §4.2 of the paper: `C = A × B` on `n × n`
//! column-major (Fortran-layout) matrices, in the five versions of
//! Table 2.
//!
//! Per-inner-iteration instruction counts follow the paper's own
//! disassembly of the three code shapes (§4.2): the untiled
//! *interchanged* loop runs "10 instructions with 2 multiply-adds, 4
//! loads, 2 stores" (5 instructions, 2 loads, 1 store per multiply-add);
//! the KAP-*tiled* loop "18 instructions with 9 multiply-adds, 6 loads"
//! (2 instructions, ⅔ load per multiply-add — a 3×3 register block);
//! and the *transposed/threaded* loop "14 instructions with 4
//! multiply-adds, 8 loads" (3.5 instructions, 2 loads per multiply-add,
//! no stores). The traced loops below emit exactly those reference
//! patterns, which is why the simulated reference counts reproduce
//! Table 3.

use crate::overhead::{FORK_INSTRUCTIONS, RUN_INSTRUCTIONS};
use crate::WorkloadReport;
use locality_sched::{BinPolicy, Hints, RunMode, Scheduler, SchedulerConfig, TopologyPolicy};
use memtrace::{AccessKind, AddressSpace, MatrixLayout, StreamRun, TraceSink, TracedMatrix};

/// Instructions per multiply-add in the untiled interchanged loop.
pub const INTERCHANGED_INSTR_PER_MADD: u64 = 5;
/// Instructions per *two* multiply-adds in the transposed dot-product
/// loop (the paper's count is 3.5 per multiply-add).
pub const TRANSPOSED_INSTR_PER_2_MADDS: u64 = 7;
/// Instructions per 3×3 register-block step (9 multiply-adds) in the
/// tiled microkernel.
pub const TILED_INSTR_PER_BLOCK_STEP: u64 = 18;
/// Instructions per element pair swapped by the in-place transpose.
pub const TRANSPOSE_INSTR_PER_PAIR: u64 = 8;

/// The operand set for one multiplication: `A`, `B`, and the output
/// `C`, all `n × n` column-major.
#[derive(Clone, Debug)]
pub struct MatMulData {
    /// Left operand.
    pub a: TracedMatrix,
    /// Right operand.
    pub b: TracedMatrix,
    /// Output, zeroed between runs with [`reset`](MatMulData::reset).
    pub c: TracedMatrix,
    n: usize,
}

impl MatMulData {
    /// Allocates operands in `space` and fills `A`, `B` with a
    /// deterministic pseudo-random pattern derived from `seed`.
    pub fn new(space: &mut AddressSpace, n: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Small values keep products well-conditioned.
            (state % 1000) as f64 / 1000.0 - 0.5
        };
        let a = TracedMatrix::from_fn(space, n, n, MatrixLayout::ColMajor, |_, _| next());
        let b = TracedMatrix::from_fn(space, n, n, MatrixLayout::ColMajor, |_, _| next());
        let c = TracedMatrix::zeros(space, n, n, MatrixLayout::ColMajor);
        MatMulData { a, b, c, n }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Zeroes `C` (untraced) so another version can run on the same
    /// operands.
    pub fn reset(&mut self) {
        for i in 0..self.n {
            for j in 0..self.n {
                self.c.set_untraced(i, j, 0.0);
            }
        }
    }

    /// Computes the reference product with a plain untraced triple
    /// loop and returns the maximum absolute difference from `C`.
    pub fn max_error_vs_naive(&self) -> f64 {
        let n = self.n;
        let mut max = 0.0f64;
        for j in 0..n {
            for i in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += self.a.at(i, k) * self.b.at(k, j);
                }
                max = max.max((acc - self.c.at(i, j)).abs());
            }
        }
        max
    }
}

/// The best untiled sequential version (paper: *interchanged*): loop
/// order `j, k, i` with `B[k, j]` registered, so the inner loop does
/// two loads and one store per multiply-add.
pub fn interchanged<S: TraceSink>(data: &mut MatMulData, sink: &mut S) -> WorkloadReport {
    let n = data.n;
    for j in 0..n {
        for k in 0..n {
            let b_kj = data.b.get(k, j, sink);
            // The inner loop over i, said once: load A[i, k], load
            // C[i, j], store C[i, j].
            let streams = [
                data.a.col_stream(k, AccessKind::Read),
                data.c.col_stream(j, AccessKind::Read),
                data.c.col_stream(j, AccessKind::Write),
            ];
            sink.run(&StreamRun::new(
                &streams,
                1,
                n as u64,
                INTERCHANGED_INSTR_PER_MADD,
            ));
            for i in 0..n {
                let c_ij = data.c.at(i, j) + data.a.at(i, k) * b_kj;
                data.c.set_untraced(i, j, c_ij);
            }
        }
    }
    WorkloadReport::unthreaded("matmul/interchanged", data.c.checksum())
}

/// Transposes the square matrix `m` in place, tracing every reference.
///
/// The paper's transposed and threaded versions transpose `A` before
/// and after the multiplication; "since the complexity of a transpose
/// is an order of magnitude less than the matrix multiply, the overhead
/// of transposes is small".
pub fn transpose_in_place<S: TraceSink>(m: &mut TracedMatrix, sink: &mut S) {
    let n = m.rows();
    assert_eq!(n, m.cols(), "in-place transpose requires a square matrix");
    for j in 1..n {
        for i in 0..j {
            let x = m.get(i, j, sink);
            let y = m.get(j, i, sink);
            m.set(i, j, y, sink);
            m.set(j, i, x, sink);
            sink.instructions(TRANSPOSE_INSTR_PER_PAIR);
        }
    }
}

/// The dot product of stored columns `i` of `At` (= row `i` of the
/// original `A`) and `j` of `B`, unrolled by two as the paper's
/// compiler did (4 multiply-adds / 14 instructions / 8 loads per
/// unrolled body ⇒ 2 loads and 3.5 instructions per multiply-add; the
/// accumulator lives in a register, so there are no stores).
#[inline]
fn dot_column<S: TraceSink>(
    at: &TracedMatrix,
    b: &TracedMatrix,
    i: usize,
    j: usize,
    sink: &mut S,
) -> f64 {
    let n = at.rows();
    // The unrolled loop, said once: two columns, n / 2 rounds of two
    // elements each.
    let streams = [
        at.col_stream(i, AccessKind::Read),
        b.col_stream(j, AccessKind::Read),
    ];
    sink.run(&StreamRun::new(
        &streams,
        2,
        (n / 2) as u64,
        TRANSPOSED_INSTR_PER_2_MADDS,
    ));
    let mut acc = 0.0;
    let mut k = 0;
    while k + 2 <= n {
        acc += at.at(k, i) * b.at(k, j) + at.at(k + 1, i) * b.at(k + 1, j);
        k += 2;
    }
    if k < n {
        let a0 = at.get(k, i, sink);
        let b0 = b.get(k, j, sink);
        acc += a0 * b0;
        sink.instructions(TRANSPOSED_INSTR_PER_2_MADDS / 2 + 1);
    }
    acc
}

/// The cache-conscious sequential version (paper: *transposed*):
/// transpose `A`, compute every `C[i, j]` as a dot product of two
/// sequentially-stored columns, transpose `A` back.
pub fn transposed<S: TraceSink>(data: &mut MatMulData, sink: &mut S) -> WorkloadReport {
    let n = data.n;
    transpose_in_place(&mut data.a, sink);
    for i in 0..n {
        for j in 0..n {
            let acc = dot_column(&data.a, &data.b, i, j, sink);
            data.c.set(i, j, acc, sink);
        }
    }
    transpose_in_place(&mut data.a, sink);
    WorkloadReport::unthreaded("matmul/transposed", data.c.checksum())
}

/// Tile sizes for the compiler-tiled versions.
///
/// The defaults follow the usual register/L1/L2 blocking recipe the
/// KAP and SGI compilers applied: a 3×3 register block (matching the
/// paper's 9-multiply-add inner loop), a `kc` panel sized for L1, and
/// an `mc` panel sized for L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileConfig {
    /// K-panel length (L1 blocking).
    pub kc: usize,
    /// I-panel height (L2 blocking).
    pub mc: usize,
}

impl TileConfig {
    /// Derives tile sizes from cache capacities in bytes.
    pub fn for_caches(l1_bytes: u64, l2_bytes: u64) -> Self {
        // Keep a 3-row A sliver and a 3-column B sliver of length kc
        // in L1 (6·kc·8 bytes ≤ L1/2), and an mc × kc A panel in L2
        // (mc·kc·8 ≤ L2/2).
        let kc = ((l1_bytes / 2 / (8 * 6)) as usize).max(8);
        let mc = ((l2_bytes / 2 / (8 * kc as u64)) as usize).max(3);
        TileConfig { kc, mc }
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        // The paper's R8000: 16 KB L1, 2 MB L2.
        TileConfig::for_caches(16 << 10, 2 << 20)
    }
}

/// The 3×3-register-block microkernel over one packed k-panel:
/// `C[i0.., j0..] += packA · packB`. Both panels are contiguous
/// scratch buffers (see [`tiled_common`]): 6 streaming loads and 18
/// instructions per 9 multiply-adds, the paper's tiled inner loop.
#[allow(clippy::too_many_arguments)]
fn micro_kernel<S: TraceSink>(
    pack_a: &TracedMatrix, // mc x kc, i fast
    pack_b: &TracedMatrix, // kc x n, k fast
    c: &mut TracedMatrix,
    i0: usize,
    ih: usize,
    j0: usize,
    jh: usize,
    ia: usize, // i0 relative to the A panel
    kc: usize, // panel depth
    sink: &mut S,
) {
    debug_assert!(ih <= 3 && jh <= 3);
    let mut acc = [[0.0f64; 3]; 3];
    for k in 0..kc {
        let mut a_reg = [0.0f64; 3];
        let mut b_reg = [0.0f64; 3];
        for (di, a_val) in a_reg.iter_mut().enumerate().take(ih) {
            *a_val = pack_a.get(ia + di, k, sink);
        }
        for (dj, b_val) in b_reg.iter_mut().enumerate().take(jh) {
            *b_val = pack_b.get(k, j0 + dj, sink);
        }
        for (di, acc_row) in acc.iter_mut().enumerate().take(ih) {
            for (dj, cell) in acc_row.iter_mut().enumerate().take(jh) {
                *cell += a_reg[di] * b_reg[dj];
            }
        }
        sink.instructions((TILED_INSTR_PER_BLOCK_STEP * (ih * jh) as u64).div_ceil(9));
    }
    for (di, acc_row) in acc.iter().enumerate().take(ih) {
        for (dj, &partial) in acc_row.iter().enumerate().take(jh) {
            let c_ij = c.get(i0 + di, j0 + dj, sink);
            c.set(i0 + di, j0 + dj, c_ij + partial, sink);
            sink.instructions(3);
        }
    }
}

/// Instructions per element copied while packing panels.
const PACK_INSTRUCTIONS: u64 = 2;

fn tiled_common<S: TraceSink>(
    data: &mut MatMulData,
    a_is_transposed: bool,
    tiles: TileConfig,
    space: &mut AddressSpace,
    sink: &mut S,
) {
    let n = data.n;
    let kc = tiles.kc.min(n.max(1));
    let mc = tiles.mc.min(n.max(1));
    // Contiguous packing buffers, as compiler-generated and library
    // GEMMs use: they make panel reuse conflict-free in physically
    // strided caches (without packing, the column stride aliases whole
    // panels onto a few cache sets).
    let mut pack_a = TracedMatrix::zeros(space, mc, kc, MatrixLayout::ColMajor);
    let mut pack_b = TracedMatrix::zeros(space, kc, n, MatrixLayout::ColMajor);
    let mut k0 = 0;
    while k0 < n {
        let k1 = (k0 + kc).min(n);
        let kd = k1 - k0;
        // Pack the B slab for this k-panel: kd x n, k fast.
        for j in 0..n {
            for k in k0..k1 {
                let v = data.b.get(k, j, sink);
                pack_b.set(k - k0, j, v, sink);
                sink.instructions(PACK_INSTRUCTIONS);
            }
        }
        let mut i0 = 0;
        while i0 < n {
            let i1 = (i0 + mc).min(n);
            // Pack the A block: (i1-i0) x kd, i fast.
            for k in k0..k1 {
                for i in i0..i1 {
                    let v = if a_is_transposed {
                        data.a.get(k, i, sink)
                    } else {
                        data.a.get(i, k, sink)
                    };
                    pack_a.set(i - i0, k - k0, v, sink);
                    sink.instructions(PACK_INSTRUCTIONS);
                }
            }
            let mut j = 0;
            while j < n {
                let jh = (n - j).min(3);
                let mut i = i0;
                while i < i1 {
                    let ih = (i1 - i).min(3);
                    micro_kernel(
                        &pack_a,
                        &pack_b,
                        &mut data.c,
                        i,
                        ih,
                        j,
                        jh,
                        i - i0,
                        kd,
                        sink,
                    );
                    i += ih;
                }
                j += jh;
            }
            i0 = i1;
        }
        k0 = k1;
    }
}

/// The compiler-tiled interchanged version (paper: KAP on the R8000,
/// SGI 7.0 on the R10000): register + L1 + L2 blocking with panel
/// packing over the untransposed operands. `space` provides the
/// packing scratch buffers.
pub fn tiled_interchanged<S: TraceSink>(
    data: &mut MatMulData,
    tiles: TileConfig,
    space: &mut AddressSpace,
    sink: &mut S,
) -> WorkloadReport {
    tiled_common(data, false, tiles, space, sink);
    WorkloadReport::unthreaded("matmul/tiled-interchanged", data.c.checksum())
}

/// The compiler-tiled transposed version: transpose `A`, run the
/// blocked kernel on sequential columns, transpose back.
pub fn tiled_transposed<S: TraceSink>(
    data: &mut MatMulData,
    tiles: TileConfig,
    space: &mut AddressSpace,
    sink: &mut S,
) -> WorkloadReport {
    transpose_in_place(&mut data.a, sink);
    tiled_common(data, true, tiles, space, sink);
    transpose_in_place(&mut data.a, sink);
    WorkloadReport::unthreaded("matmul/tiled-transposed", data.c.checksum())
}

/// Context shared by the dot-product threads.
struct DotCtx<'a, S> {
    at: &'a TracedMatrix,
    b: &'a TracedMatrix,
    c: &'a mut TracedMatrix,
    sink: &'a mut S,
}

fn dot_thread<S: TraceSink>(ctx: &mut DotCtx<'_, S>, i: usize, j: usize) {
    ctx.sink.instructions(RUN_INSTRUCTIONS);
    let acc = dot_column(ctx.at, ctx.b, i, j, ctx.sink);
    ctx.c.set(i, j, acc, ctx.sink);
}

/// The threaded version (paper §2.1/§4.2): transpose `A`, fork one
/// thread per dot product with the two column base addresses as hints —
/// `th_fork(DotProduct, i, j, A[1,i], B[1,j])` — run them in bin order,
/// transpose back.
pub fn threaded<S: TraceSink>(
    data: &mut MatMulData,
    config: SchedulerConfig,
    sink: &mut S,
) -> WorkloadReport {
    let policy = TopologyPolicy::from_config(&config);
    threaded_with(data, config, policy, sink)
}

/// [`threaded`] under an arbitrary [`BinPolicy`] — the hints are
/// identical; only the hints→bin mapping (and hence the drain order)
/// changes.
pub fn threaded_with<S: TraceSink, P: BinPolicy>(
    data: &mut MatMulData,
    config: SchedulerConfig,
    policy: P,
    sink: &mut S,
) -> WorkloadReport {
    let n = data.n;
    transpose_in_place(&mut data.a, sink);
    let sched_stats = {
        let mut sched: Scheduler<DotCtx<'_, S>, P> = Scheduler::with_policy(config, policy);
        sched.trace_package_memory();
        for i in 0..n {
            for j in 0..n {
                sched.fork_traced(
                    dot_thread::<S>,
                    i,
                    j,
                    Hints::two(data.a.col_addr(i), data.b.col_addr(j)),
                    sink,
                );
                sink.instructions(FORK_INSTRUCTIONS);
            }
        }
        let stats = sched.stats();
        let mut ctx = DotCtx {
            at: &data.a,
            b: &data.b,
            c: &mut data.c,
            sink,
        };
        sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut *c.sink);
        stats
    };
    transpose_in_place(&mut data.a, sink);
    WorkloadReport::threaded("matmul/threaded", data.c.checksum(), sched_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{CountingSink, NullSink};

    fn data(n: usize) -> (AddressSpace, MatMulData) {
        let mut space = AddressSpace::new();
        let d = MatMulData::new(&mut space, n, 42);
        (space, d)
    }

    fn sched_config() -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(1 << 12)
            .build()
            .unwrap()
    }

    #[test]
    fn interchanged_is_correct() {
        let (_s, mut d) = data(17);
        interchanged(&mut d, &mut NullSink);
        assert!(d.max_error_vs_naive() < 1e-12);
    }

    #[test]
    fn transposed_is_correct_and_restores_a() {
        let (_s, mut d) = data(16);
        let a_before: Vec<f64> = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .map(|(i, j)| d.a.at(i, j))
            .collect();
        transposed(&mut d, &mut NullSink);
        assert!(d.max_error_vs_naive() < 1e-12);
        let a_after: Vec<f64> = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .map(|(i, j)| d.a.at(i, j))
            .collect();
        assert_eq!(a_before, a_after, "A must be transposed back");
    }

    #[test]
    fn tiled_versions_are_correct() {
        for n in [9, 16, 23] {
            let (mut s, mut d) = data(n);
            let tiles = TileConfig { kc: 5, mc: 7 };
            tiled_interchanged(&mut d, tiles, &mut s, &mut NullSink);
            assert!(d.max_error_vs_naive() < 1e-12, "tiled-interchanged n={n}");
            d.reset();
            tiled_transposed(&mut d, tiles, &mut s, &mut NullSink);
            assert!(d.max_error_vs_naive() < 1e-12, "tiled-transposed n={n}");
        }
    }

    #[test]
    fn threaded_is_correct() {
        for n in [8, 15] {
            let (_s, mut d) = data(n);
            let report = threaded(&mut d, sched_config(), &mut NullSink);
            assert!(d.max_error_vs_naive() < 1e-12, "n={n}");
            assert_eq!(report.threads, (n * n) as u64);
            assert!(report.sched.unwrap().bins() >= 1);
        }
    }

    #[test]
    fn all_versions_agree_bitwise() {
        let (mut space, mut d) = data(20);
        interchanged(&mut d, &mut NullSink);
        let reference = d.c.checksum();
        type Runner = fn(&mut MatMulData, &mut AddressSpace, &mut NullSink) -> WorkloadReport;
        let runners: [Runner; 4] = [
            |d, _sp, s| transposed(d, s),
            |d, sp, s| tiled_interchanged(d, TileConfig::default(), sp, s),
            |d, sp, s| tiled_transposed(d, TileConfig::default(), sp, s),
            |d, _sp, s| {
                threaded(
                    d,
                    SchedulerConfig::builder()
                        .block_size(1 << 12)
                        .build()
                        .unwrap(),
                    s,
                )
            },
        ];
        for run in runners {
            d.reset();
            let report = run(&mut d, &mut space, &mut NullSink);
            // Same sums of products, different association order: allow
            // only tiny drift.
            assert!(
                (report.checksum - reference).abs() < 1e-9 * reference.abs().max(1.0),
                "{} checksum {} vs {}",
                report.name,
                report.checksum,
                reference
            );
        }
    }

    #[test]
    fn interchanged_reference_counts_match_paper_formula() {
        // Paper Table 3 (n = 1024): D references = 3n³ (2 loads + 1
        // store per multiply-add), I fetches ≈ 5n³.
        let n = 12;
        let (_s, mut d) = data(n);
        let mut sink = CountingSink::new();
        interchanged(&mut d, &mut sink);
        let n3 = (n * n * n) as u64;
        assert_eq!(sink.reads(), 2 * n3 + n as u64 * n as u64); // + B loads
        assert_eq!(sink.writes(), n3);
        assert_eq!(sink.instructions_executed(), 5 * n3);
    }

    #[test]
    fn transposed_reference_counts_match_paper_formula() {
        // 2 loads per multiply-add + 1 store per element + 2 transposes.
        let n = 12;
        let (_s, mut d) = data(n);
        let mut sink = CountingSink::new();
        transposed(&mut d, &mut sink);
        let n = n as u64;
        let transpose_refs = 2 * (n * (n - 1) / 2) * 4;
        assert_eq!(
            sink.reads() + sink.writes(),
            2 * n * n * n + n * n + transpose_refs
        );
        // 3.5 instructions per multiply-add (n even: no remainder).
        assert_eq!(
            sink.instructions_executed(),
            7 * n * n * n / 2 + TRANSPOSE_INSTR_PER_PAIR * (n * (n - 1) / 2) * 2
        );
    }

    #[test]
    fn tiled_does_fewer_data_references_than_untiled() {
        let n = 24;
        let (_s, mut d) = data(n);
        let mut untiled_sink = CountingSink::new();
        interchanged(&mut d, &mut untiled_sink);
        d.reset();
        let mut tiled_sink = CountingSink::new();
        let mut space = AddressSpace::new();
        tiled_interchanged(
            &mut d,
            TileConfig { kc: 8, mc: 12 },
            &mut space,
            &mut tiled_sink,
        );
        assert!(
            tiled_sink.data_references() < untiled_sink.data_references() / 2,
            "tiled {} vs untiled {}",
            tiled_sink.data_references(),
            untiled_sink.data_references()
        );
        assert!(tiled_sink.instructions_executed() < untiled_sink.instructions_executed());
    }

    #[test]
    fn threaded_bins_follow_block_size() {
        // Columns of 8 * n bytes; block of 2 columns -> n/2 blocks per
        // dimension -> (n/2)² bins... but A and B are distinct regions,
        // so the bin count is the number of distinct (blockA, blockB)
        // pairs actually touched.
        let n = 16;
        let (_s, mut d) = data(n);
        let col_bytes = 8 * n as u64;
        let config = SchedulerConfig::builder()
            .block_size((2 * col_bytes).next_power_of_two())
            .build()
            .unwrap();
        let report = threaded(&mut d, config, &mut NullSink);
        let sched = report.sched.unwrap();
        // Threads per bin should be uniform: the paper reports "quite
        // uniform" distribution for matmul.
        assert!(sched.bin_size_cv() < 0.6, "cv = {}", sched.bin_size_cv());
    }
}
