//! Scheduling hints: the addresses a thread expects to reference.

use memtrace::Addr;
use std::fmt;

/// The maximum hint dimensionality the package implements.
///
/// The paper: "Our thread package implements the scheduling algorithm
/// for the three-dimensional case, although it is quite easy to extend
/// it to higher dimensional cases." — demonstrated: this package
/// carries four, and raising the constant further is mechanical.
pub const MAX_DIMS: usize = 4;

/// One to four address hints attached to a thread at fork time.
///
/// Hints name the data a thread will reference — "intuitively, the two
/// largest objects referenced by the thread or the two objects most
/// frequently referenced" (§2.3). Unused dimensions are the null
/// address, mirroring the paper's `th_fork(..., hint3 = 0)` convention.
///
/// # Examples
///
/// ```
/// use locality_sched::{Addr, Hints};
///
/// let one = Hints::one(Addr::new(0x1000));
/// assert_eq!(one.dims(), 1);
/// let three = Hints::three(Addr::new(1), Addr::new(2), Addr::new(3));
/// assert_eq!(three.dims(), 3);
/// assert_eq!(three.get(2), Addr::new(3));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Hints {
    addrs: [Addr; MAX_DIMS],
}

impl Hints {
    /// No hints: the thread lands in the scheduler's origin bin, so
    /// hint-less threads still run (in creation order relative to each
    /// other).
    pub fn none() -> Self {
        Hints::default()
    }

    /// A one-dimensional hint (paper: SOR uses one hint per thread).
    pub fn one(h1: Addr) -> Self {
        Hints {
            addrs: [h1, Addr::NULL, Addr::NULL, Addr::NULL],
        }
    }

    /// A two-dimensional hint (paper: matmul hints with two column
    /// addresses).
    pub fn two(h1: Addr, h2: Addr) -> Self {
        Hints {
            addrs: [h1, h2, Addr::NULL, Addr::NULL],
        }
    }

    /// A three-dimensional hint (paper: N-body hints with scaled x, y,
    /// z body coordinates).
    pub fn three(h1: Addr, h2: Addr, h3: Addr) -> Self {
        Hints {
            addrs: [h1, h2, h3, Addr::NULL],
        }
    }

    /// A four-dimensional hint — beyond the paper's implementation,
    /// showing the promised "higher dimensional cases" extension.
    pub fn four(h1: Addr, h2: Addr, h3: Addr, h4: Addr) -> Self {
        Hints {
            addrs: [h1, h2, h3, h4],
        }
    }

    /// Number of meaningful (non-null trailing) dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        (0..MAX_DIMS)
            .rev()
            .find(|&d| !self.addrs[d].is_null())
            .map_or(0, |d| d + 1)
    }

    /// The hint in dimension `dim` (null if unused).
    ///
    /// # Panics
    ///
    /// Panics if `dim >= MAX_DIMS`.
    #[inline]
    pub fn get(&self, dim: usize) -> Addr {
        self.addrs[dim]
    }

    /// All dimensions (unused ones are null).
    #[inline]
    pub fn as_array(&self) -> [Addr; MAX_DIMS] {
        self.addrs
    }
}

impl fmt::Display for Hints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dims = self.dims();
        if dims == 0 {
            return f.write_str("(no hints)");
        }
        f.write_str("(")?;
        for d in 0..dims {
            if d > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}", self.addrs[d])?;
        }
        f.write_str(")")
    }
}

impl From<Addr> for Hints {
    fn from(addr: Addr) -> Self {
        Hints::one(addr)
    }
}

impl From<(Addr, Addr)> for Hints {
    fn from((a, b): (Addr, Addr)) -> Self {
        Hints::two(a, b)
    }
}

impl From<(Addr, Addr, Addr)> for Hints {
    fn from((a, b, c): (Addr, Addr, Addr)) -> Self {
        Hints::three(a, b, c)
    }
}

impl From<(Addr, Addr, Addr, Addr)> for Hints {
    fn from((a, b, c, d): (Addr, Addr, Addr, Addr)) -> Self {
        Hints::four(a, b, c, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_counts_trailing_nulls() {
        assert_eq!(Hints::none().dims(), 0);
        assert_eq!(Hints::one(Addr::new(1)).dims(), 1);
        assert_eq!(Hints::two(Addr::new(1), Addr::new(2)).dims(), 2);
        assert_eq!(
            Hints::three(Addr::new(1), Addr::new(2), Addr::new(3)).dims(),
            3
        );
        assert_eq!(
            Hints::four(Addr::new(1), Addr::new(2), Addr::new(3), Addr::new(4)).dims(),
            4
        );
    }

    #[test]
    fn middle_null_hint_is_allowed() {
        // A null in a middle dimension with a live third dimension still
        // counts as 3-D (the null coordinate maps to block 0).
        let h = Hints::three(Addr::new(1), Addr::NULL, Addr::new(3));
        assert_eq!(h.dims(), 3);
    }

    #[test]
    fn conversions() {
        let h: Hints = Addr::new(5).into();
        assert_eq!(h, Hints::one(Addr::new(5)));
        let h: Hints = (Addr::new(1), Addr::new(2)).into();
        assert_eq!(h.dims(), 2);
        let h: Hints = (Addr::new(1), Addr::new(2), Addr::new(3)).into();
        assert_eq!(h.dims(), 3);
        let h: Hints = (Addr::new(1), Addr::new(2), Addr::new(3), Addr::new(4)).into();
        assert_eq!(h.dims(), 4);
    }

    #[test]
    fn display_formats_by_dims() {
        assert_eq!(Hints::none().to_string(), "(no hints)");
        assert_eq!(Hints::one(Addr::new(16)).to_string(), "(0x10)");
        assert_eq!(
            Hints::two(Addr::new(1), Addr::new(2)).to_string(),
            "(0x1, 0x2)"
        );
    }

    #[test]
    fn as_array_roundtrip() {
        let h = Hints::three(Addr::new(1), Addr::new(2), Addr::new(3));
        assert_eq!(
            h.as_array(),
            [Addr::new(1), Addr::new(2), Addr::new(3), Addr::NULL]
        );
        assert_eq!(h.get(0), Addr::new(1));
    }
}
