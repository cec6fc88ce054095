//! A dense `f64` matrix whose element accesses emit trace events.

use crate::{AccessKind, Addr, AddressSpace, Stream, TraceSink};

/// Element storage order of a [`TracedMatrix`].
///
/// The paper's Fortran benchmarks (matmul, PDE, SOR) are column-major;
/// the C N-body benchmark is row-major. §4 notes "either layout works
/// with our scheduler", and both are supported here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatrixLayout {
    /// Consecutive elements of a *row* are adjacent in memory (C).
    RowMajor,
    /// Consecutive elements of a *column* are adjacent in memory (Fortran).
    ColMajor,
}

/// A dense matrix of `f64` living at a fixed virtual address, whose
/// [`get`](TracedMatrix::get)/[`set`](TracedMatrix::set) accessors emit
/// one [`Access`](crate::Access) per element touch into a caller-supplied
/// [`TraceSink`].
///
/// Untraced accessors ([`at`](TracedMatrix::at),
/// [`set_untraced`](TracedMatrix::set_untraced)) exist for
/// initialization and verification, mirroring the paper's exclusion of
/// "program initialization costs" from its simulations, and for kernels
/// whose references a [`StreamRun`](crate::StreamRun) states (see
/// [`col_stream`](TracedMatrix::col_stream)).
///
/// # Examples
///
/// ```
/// use memtrace::{AddressSpace, MatrixLayout, NullSink, TracedMatrix};
///
/// let mut space = AddressSpace::new();
/// let mut m = TracedMatrix::zeros(&mut space, 2, 3, MatrixLayout::ColMajor);
/// m.set(1, 2, 5.0, &mut NullSink);
/// assert_eq!(m.get(1, 2, &mut NullSink), 5.0);
/// // Column-major: (i, j) lives at base + 8 * (j * rows + i).
/// assert_eq!(m.addr_of(1, 2), m.base() + 8 * (2 * 2 + 1));
/// ```
#[derive(Clone, Debug)]
pub struct TracedMatrix {
    data: Vec<f64>,
    base: Addr,
    rows: usize,
    cols: usize,
    layout: MatrixLayout,
}

/// Size of one element in bytes.
pub(crate) const ELEM: u64 = 8;

impl TracedMatrix {
    /// Allocates a `rows × cols` zero matrix in `space`.
    ///
    /// The backing region is cache-line (128-byte) aligned so that
    /// simulated line boundaries are realistic.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(space: &mut AddressSpace, rows: usize, cols: usize, layout: MatrixLayout) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        let base = space.alloc_named("matrix", (len as u64) * ELEM, 128);
        TracedMatrix {
            data: vec![0.0; len],
            base,
            rows,
            cols,
            layout,
        }
    }

    /// Allocates a matrix and fills `(i, j)` with `f(i, j)` (untraced).
    pub fn from_fn(
        space: &mut AddressSpace,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut m = TracedMatrix::zeros(space, rows, cols, layout);
        for i in 0..rows {
            for j in 0..cols {
                m.set_untraced(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage order.
    pub fn layout(&self) -> MatrixLayout {
        self.layout
    }

    /// Base virtual address of element (0, 0).
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Total bytes occupied.
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() as u64) * ELEM
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        match self.layout {
            MatrixLayout::RowMajor => i * self.cols + j,
            MatrixLayout::ColMajor => j * self.rows + i,
        }
    }

    /// Virtual address of element `(i, j)`.
    ///
    /// This is what workloads pass to the scheduler as a hint (e.g. the
    /// paper's `th_fork(DotProduct, i, j, A[1,i], B[1,j])` passes
    /// column base addresses).
    #[inline]
    pub fn addr_of(&self, i: usize, j: usize) -> Addr {
        self.base + (self.index(i, j) as u64) * ELEM
    }

    /// Virtual address of the first element of column `j`.
    #[inline]
    pub fn col_addr(&self, j: usize) -> Addr {
        self.addr_of(0, j)
    }

    /// Virtual address of the first element of row `i`.
    #[inline]
    pub fn row_addr(&self, i: usize) -> Addr {
        self.addr_of(i, 0)
    }

    /// A walk down column `j` from row 0, one element a step, as a
    /// [`Stream`] of `kind` references: what a kernel puts in a
    /// [`StreamRun`](crate::StreamRun) for an inner loop over a column.
    /// The record carries addresses only; the kernel reads and writes
    /// the values through [`at`](TracedMatrix::at) and
    /// [`set_untraced`](TracedMatrix::set_untraced).
    #[inline]
    pub fn col_stream(&self, j: usize, kind: AccessKind) -> Stream {
        Stream {
            base: self.col_addr(j),
            stride: match self.layout {
                MatrixLayout::RowMajor => self.cols as u64 * ELEM,
                MatrixLayout::ColMajor => ELEM,
            },
            size: ELEM as u32,
            kind,
        }
    }

    /// Traced load of element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index is out of bounds.
    #[inline]
    pub fn get<S: TraceSink>(&self, i: usize, j: usize, sink: &mut S) -> f64 {
        let idx = self.index(i, j);
        sink.read(self.base + (idx as u64) * ELEM, ELEM as u32);
        self.data[idx]
    }

    /// Traced store of element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index is out of bounds.
    #[inline]
    pub fn set<S: TraceSink>(&mut self, i: usize, j: usize, value: f64, sink: &mut S) {
        let idx = self.index(i, j);
        sink.write(self.base + (idx as u64) * ELEM, ELEM as u32);
        self.data[idx] = value;
    }

    /// Untraced load, for initialization and verification, or for a
    /// kernel whose run record has stated the reference.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[self.index(i, j)]
    }

    /// Untraced store, for initialization and verification, or for a
    /// kernel whose run record has stated the reference.
    #[inline]
    pub fn set_untraced(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.index(i, j);
        self.data[idx] = value;
    }

    /// Maximum absolute element-wise difference from `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn max_abs_diff(&self, other: &TracedMatrix) -> f64 {
        assert_eq!(self.rows, other.rows, "row count mismatch");
        assert_eq!(self.cols, other.cols, "column count mismatch");
        let mut max = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                max = max.max((self.at(i, j) - other.at(i, j)).abs());
            }
        }
        max
    }

    /// Sum of all elements (untraced); a cheap checksum for tests.
    pub fn checksum(&self) -> f64 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, VecSink};

    fn space() -> AddressSpace {
        AddressSpace::new()
    }

    #[test]
    fn col_major_addressing() {
        let m = TracedMatrix::zeros(&mut space(), 4, 3, MatrixLayout::ColMajor);
        assert_eq!(m.addr_of(0, 0), m.base());
        assert_eq!(m.addr_of(1, 0), m.base() + 8);
        assert_eq!(m.addr_of(0, 1), m.base() + 8 * 4);
        assert_eq!(m.col_addr(2), m.base() + 8 * 8);
    }

    #[test]
    fn row_major_addressing() {
        let m = TracedMatrix::zeros(&mut space(), 4, 3, MatrixLayout::RowMajor);
        assert_eq!(m.addr_of(0, 1), m.base() + 8);
        assert_eq!(m.addr_of(1, 0), m.base() + 8 * 3);
        assert_eq!(m.row_addr(2), m.base() + 8 * 6);
    }

    #[test]
    fn get_set_roundtrip_and_trace() {
        let mut m = TracedMatrix::zeros(&mut space(), 2, 2, MatrixLayout::ColMajor);
        let mut sink = VecSink::new();
        m.set(1, 1, 2.5, &mut sink);
        assert_eq!(m.get(1, 1, &mut sink), 2.5);
        let trace = sink.accesses();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].kind, AccessKind::Write);
        assert_eq!(trace[1].kind, AccessKind::Read);
        assert_eq!(trace[0].addr, m.addr_of(1, 1));
        assert_eq!(trace[0].size, 8);
    }

    #[test]
    fn col_stream_names_the_addresses_a_column_walk_touches() {
        for layout in [MatrixLayout::ColMajor, MatrixLayout::RowMajor] {
            let m = TracedMatrix::zeros(&mut space(), 5, 3, layout);
            let stream = m.col_stream(2, AccessKind::Write);
            let mut walked = VecSink::new();
            let mut copy = m.clone();
            for i in 0..5 {
                copy.set(i, 2, 0.0, &mut walked);
            }
            let streamed: Vec<_> = (0..5).map(|i| stream.element(i)).collect();
            assert_eq!(streamed, walked.accesses(), "{layout:?}");
        }
        // A single row has a column walk too (of one step).
        let row = TracedMatrix::zeros(&mut space(), 1, 4, MatrixLayout::ColMajor);
        assert_eq!(row.col_stream(3, AccessKind::Read).base, row.addr_of(0, 3));
    }

    #[test]
    fn from_fn_fills_values() {
        let m = TracedMatrix::from_fn(&mut space(), 3, 3, MatrixLayout::RowMajor, |i, j| {
            (i * 10 + j) as f64
        });
        assert_eq!(m.at(2, 1), 21.0);
        assert_eq!(
            m.checksum(),
            (0..3)
                .flat_map(|i| (0..3).map(move |j| (i * 10 + j) as f64))
                .sum()
        );
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let mut s = space();
        let a = TracedMatrix::from_fn(&mut s, 2, 2, MatrixLayout::ColMajor, |_, _| 1.0);
        let mut b = TracedMatrix::from_fn(&mut s, 2, 2, MatrixLayout::ColMajor, |_, _| 1.0);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set_untraced(0, 1, 3.0);
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    fn base_is_line_aligned() {
        let mut s = space();
        s.alloc(13, 1); // misalign the bump pointer
        let m = TracedMatrix::zeros(&mut s, 2, 2, MatrixLayout::ColMajor);
        assert_eq!(m.base().raw() % 128, 0);
    }

    #[test]
    fn distinct_matrices_are_disjoint() {
        let mut s = space();
        let a = TracedMatrix::zeros(&mut s, 8, 8, MatrixLayout::ColMajor);
        let b = TracedMatrix::zeros(&mut s, 8, 8, MatrixLayout::ColMajor);
        assert!(b.base().raw() >= a.base().raw() + a.size_bytes());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics_in_debug() {
        let m = TracedMatrix::zeros(&mut space(), 2, 2, MatrixLayout::ColMajor);
        let _ = m.at(2, 0);
    }
}
