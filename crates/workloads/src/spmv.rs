//! Sparse matrix–vector product (CSR) — an *extension* workload beyond
//! the paper's four, exercising the scheduler on the data-dependent
//! access pattern the paper's introduction motivates ("data might be
//! allocated dynamically or accessed indirectly"): which entries of
//! `x` a row reads is known only at run time, from the column indices.
//!
//! The setup mirrors a common reality for banded/clustered sparse
//! systems: the matrix is banded, but the rows arrive in an arbitrary
//! work-list order (mesh renumbering, queue of refinement tasks, …).
//! Processing rows in that order touches `x` all over; hinting each
//! row-thread with the address of the `x` segment it will read lets
//! the scheduler restore the band structure — no inspection of the
//! matrix required beyond the first column index per row.

use crate::overhead::{FORK_INSTRUCTIONS, RUN_INSTRUCTIONS};
use crate::WorkloadReport;
use locality_sched::{Hints, RunMode, Scheduler, SchedulerConfig};
use memtrace::{AddressSpace, TraceSink, TracedBuf};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Instructions per nonzero of the inner product.
pub const NNZ_INSTRUCTIONS: u64 = 5;
/// Instructions per row (pointer fetches, store of `y`).
pub const ROW_INSTRUCTIONS: u64 = 8;

/// A CSR sparse matrix with its operand and result vectors, plus the
/// (shuffled) row work list.
#[derive(Clone, Debug)]
pub struct SpmvData {
    row_ptr: TracedBuf<u32>,
    col_idx: TracedBuf<u32>,
    values: TracedBuf<f64>,
    /// Operand vector.
    pub x: TracedBuf<f64>,
    /// Result vector.
    pub y: TracedBuf<f64>,
    /// Row processing order (shuffled, as an irregular work list).
    order: Vec<u32>,
    n: usize,
}

impl SpmvData {
    /// Builds an `n × n` banded matrix with `per_row` nonzeros per row
    /// spread over a band of half-width `band`, rows listed in random
    /// work-list order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `per_row` is zero.
    pub fn banded(
        space: &mut AddressSpace,
        n: usize,
        band: usize,
        per_row: usize,
        seed: u64,
    ) -> Self {
        assert!(n > 0 && per_row > 0, "matrix must be nonempty");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for i in 0..n {
            let lo = i.saturating_sub(band);
            let hi = (i + band).min(n - 1);
            let mut cols: Vec<u32> = (0..per_row)
                .map(|_| rng.gen_range(lo..=hi) as u32)
                .collect();
            cols.sort_unstable();
            cols.dedup();
            for &c in &cols {
                col_idx.push(c);
                values.push(rng.gen_range(-1.0..1.0));
            }
            row_ptr.push(col_idx.len() as u32);
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let x_init: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        SpmvData {
            row_ptr: TracedBuf::from_vec(space, row_ptr),
            col_idx: TracedBuf::from_vec(space, col_idx),
            values: TracedBuf::from_vec(space, values),
            x: TracedBuf::from_vec(space, x_init),
            y: TracedBuf::new(space, n),
            order,
            n,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Zeroes `y` (untraced).
    pub fn reset(&mut self) {
        for i in 0..self.n {
            *self.y.at_mut(i) = 0.0;
        }
    }

    /// Dense reference product (untraced), for verification.
    pub fn reference(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.n];
        for (i, slot) in out.iter_mut().enumerate() {
            let start = *self.row_ptr.at(i) as usize;
            let end = *self.row_ptr.at(i + 1) as usize;
            for k in start..end {
                *slot += self.values.at(k) * self.x.at(*self.col_idx.at(k) as usize);
            }
        }
        out
    }

    /// Result checksum.
    pub fn checksum(&self) -> f64 {
        self.y.as_slice().iter().sum()
    }

    /// Computes one row's inner product (traced) and stores it.
    fn row_product<S: TraceSink>(&mut self, row: usize, sink: &mut S) {
        let start = self.row_ptr.get(row, sink) as usize;
        let end = self.row_ptr.get(row + 1, sink) as usize;
        let mut acc = 0.0;
        for k in start..end {
            let col = self.col_idx.get(k, sink) as usize;
            let v = self.values.get(k, sink);
            let xv = self.x.get(col, sink);
            acc += v * xv;
            sink.instructions(NNZ_INSTRUCTIONS);
        }
        self.y.set(row, acc, sink);
        sink.instructions(ROW_INSTRUCTIONS);
    }

    /// Address of the `x` segment row `row` reads (its first column) —
    /// the natural scheduling hint, available without inspecting the
    /// whole row.
    fn row_hint(&self, row: usize) -> Hints {
        let start = *self.row_ptr.at(row) as usize;
        let end = *self.row_ptr.at(row + 1) as usize;
        if start == end {
            return Hints::none();
        }
        Hints::one(self.x.addr_of(*self.col_idx.at(start) as usize))
    }
}

/// Processes rows in work-list order — the irregular baseline.
pub fn worklist<S: TraceSink>(data: &mut SpmvData, sink: &mut S) -> WorkloadReport {
    let order = data.order.clone();
    for &row in &order {
        data.row_product(row as usize, sink);
    }
    WorkloadReport::unthreaded("spmv/worklist", data.checksum())
}

struct SpmvCtx<'a, S> {
    data: &'a mut SpmvData,
    sink: &'a mut S,
}

fn spmv_thread<S: TraceSink>(ctx: &mut SpmvCtx<'_, S>, row: usize, _unused: usize) {
    ctx.sink.instructions(RUN_INSTRUCTIONS);
    ctx.data.row_product(row, ctx.sink);
}

/// Forks one thread per row (in work-list order) hinted by the row's
/// `x` segment; the scheduler restores the band structure.
pub fn threaded<S: TraceSink>(
    data: &mut SpmvData,
    config: SchedulerConfig,
    sink: &mut S,
) -> WorkloadReport {
    let order = data.order.clone();
    let stats = {
        let mut sched = Scheduler::<SpmvCtx<'_, S>>::new(config);
        sched.trace_package_memory();
        for &row in &order {
            sched.fork_traced(
                spmv_thread::<S>,
                row as usize,
                0,
                data.row_hint(row as usize),
                sink,
            );
            sink.instructions(FORK_INSTRUCTIONS);
        }
        let stats = sched.stats();
        let mut ctx = SpmvCtx { data, sink };
        sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut *c.sink);
        stats
    };
    WorkloadReport::threaded("spmv/threaded", data.checksum(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{CountingSink, NullSink};

    fn data(n: usize) -> SpmvData {
        let mut space = AddressSpace::new();
        SpmvData::banded(&mut space, n, 8, 6, 77)
    }

    fn config() -> SchedulerConfig {
        SchedulerConfig::builder().block_size(1024).build().unwrap()
    }

    #[test]
    fn worklist_matches_dense_reference() {
        let mut d = data(200);
        let expect = d.reference();
        worklist(&mut d, &mut NullSink);
        for (i, want) in expect.iter().enumerate() {
            assert!((d.y.at(i) - want).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn threaded_matches_worklist_bitwise() {
        let mut d = data(300);
        worklist(&mut d, &mut NullSink);
        let reference: Vec<f64> = d.y.as_slice().to_vec();
        d.reset();
        let report = threaded(&mut d, config(), &mut NullSink);
        assert_eq!(d.y.as_slice(), reference.as_slice());
        assert_eq!(report.threads, 300);
        assert!(report.sched.unwrap().bins() > 1);
    }

    #[test]
    fn rows_touch_only_their_band() {
        let n = 100;
        let band = 5;
        let mut space = AddressSpace::new();
        let d = SpmvData::banded(&mut space, n, band, 4, 3);
        for i in 0..n {
            let start = *d.row_ptr.at(i) as usize;
            let end = *d.row_ptr.at(i + 1) as usize;
            assert!(end > start, "row {i} empty");
            for k in start..end {
                let c = *d.col_idx.at(k) as usize;
                assert!(c + band >= i && c <= i + band, "row {i} col {c}");
            }
        }
    }

    #[test]
    fn traced_reference_counts_are_linear_in_nnz() {
        let mut d = data(150);
        let nnz = d.nnz() as u64;
        let mut sink = CountingSink::new();
        worklist(&mut d, &mut sink);
        // 3 refs per nonzero + 2 row_ptr reads + 1 y write per row.
        assert_eq!(sink.data_references(), 3 * nnz + 3 * 150);
        assert_eq!(
            sink.instructions_executed(),
            NNZ_INSTRUCTIONS * nnz + ROW_INSTRUCTIONS * 150
        );
    }

    #[test]
    fn binning_recovers_locality_in_simulation() {
        use cachesim::{MachineModel, SimSink};
        // x is 8x the scaled L2, banded structure, shuffled work list.
        let n = 32_768; // x = 256 KiB
        let machine = MachineModel::r8000()
            .scaled_split(1.0, 1.0 / 64.0)
            .expect("valid scaled machine"); // L2 32 KiB
        let mut space = AddressSpace::new();
        let mut d = SpmvData::banded(&mut space, n, 64, 6, 9);

        let mut sim = SimSink::new(machine.hierarchy());
        worklist(&mut d, &mut sim);
        let baseline = sim.finish();

        let mut space = AddressSpace::new();
        let mut d = SpmvData::banded(&mut space, n, 64, 6, 9);
        let mut sim = SimSink::new(machine.hierarchy());
        // Block = L2/4: the hinted x segment must stay resident while
        // the CSR arrays *stream past it* — unhinted streaming traffic
        // means the hinted working set has to be a fraction of the
        // cache, not all of it.
        let cfg = SchedulerConfig::builder()
            .block_size(machine.l2_config().size() / 4)
            .build()
            .unwrap();
        let report = threaded(&mut d, cfg, &mut sim);
        sim.add_threads(report.threads);
        let binned = sim.finish();

        assert!(
            baseline.l2.misses() as f64 > 1.5 * binned.l2.misses() as f64,
            "binning must recover the band: {} vs {}",
            baseline.l2.misses(),
            binned.l2.misses()
        );
    }
}
