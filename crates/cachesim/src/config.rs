//! Cache geometry configuration.

use std::error::Error;
use std::fmt;

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// use cachesim::CacheConfig;
///
/// // The R8000's unified 2 MB 4-way L2 with 128-byte lines.
/// let l2 = CacheConfig::new(2 << 20, 128, 4)?;
/// assert_eq!(l2.sets(), 4096);
/// assert_eq!(l2.lines(), 16384);
/// # Ok::<(), cachesim::CacheConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size: u64,
    line: u64,
    assoc: u32,
}

/// Error returned when a [`CacheConfig`] is geometrically impossible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfigError {
    message: String,
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cache configuration: {}", self.message)
    }
}

impl Error for CacheConfigError {}

impl CacheConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CacheConfigError {
            message: message.into(),
        }
    }
}

/// Most lines a level may have. A [`Cache`](crate::Cache) allocates a
/// tag and a dirty flag per line up front — 2.25 GiB at this
/// bound, where the paper's largest level has 2¹⁴ lines — so a geometry
/// from a command line is refused here, before anything is allocated.
const MAX_LINES: u64 = 1 << 28;

/// Shortest line a level may have, which keeps every line index
/// (`address / line`) below `u64::MAX`.
const MIN_LINE: u64 = 2;

impl CacheConfig {
    /// Creates a cache geometry of `size` bytes total, `line`-byte lines,
    /// and `assoc`-way set associativity.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero, `size` or `line` is not
    /// a power of two, `line` is a single byte, `size` is not divisible
    /// by `line * assoc`, the resulting set count is not a power of two,
    /// or the level would have more than 2²⁸ lines.
    pub fn new(size: u64, line: u64, assoc: u32) -> Result<Self, CacheConfigError> {
        if size == 0 || line == 0 || assoc == 0 {
            return Err(CacheConfigError::new(
                "size, line, and assoc must be nonzero",
            ));
        }
        if !size.is_power_of_two() {
            return Err(CacheConfigError::new(format!(
                "size {size} is not a power of two"
            )));
        }
        if !line.is_power_of_two() {
            return Err(CacheConfigError::new(format!(
                "line {line} is not a power of two"
            )));
        }
        if line < MIN_LINE {
            // `Cache` marks an empty way with the tag `u64::MAX`, and
            // with one-byte lines that is the line index of the top
            // address: its first reference would count as a hit.
            return Err(CacheConfigError::new(format!(
                "line {line} is shorter than the {MIN_LINE} bytes a line must have"
            )));
        }
        let way_bytes = line
            .checked_mul(u64::from(assoc))
            .ok_or_else(|| CacheConfigError::new("line * assoc overflows"))?;
        if !size.is_multiple_of(way_bytes) {
            return Err(CacheConfigError::new(format!(
                "size {size} is not divisible by line {line} * assoc {assoc}"
            )));
        }
        let sets = size / way_bytes;
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::new(format!(
                "set count {sets} is not a power of two"
            )));
        }
        let lines = size / line;
        if lines > MAX_LINES {
            return Err(CacheConfigError::new(format!(
                "size {size} / line {line} is {lines} lines, more than the {MAX_LINES} a level may have"
            )));
        }
        Ok(CacheConfig { size, line, assoc })
    }

    /// A fully-associative geometry of the same capacity and line size.
    ///
    /// Used by the 3C classifier's capacity model.
    pub fn fully_associative(self) -> CacheConfig {
        CacheConfig {
            assoc: (self.size / self.line) as u32,
            ..self
        }
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Line size in bytes.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Ways per set.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / (self.line * u64::from(self.assoc))
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.size / self.line
    }

    /// Returns this geometry with capacity multiplied by `factor`
    /// (rounded to the nearest power of two, minimum one set), keeping
    /// line size and associativity.
    ///
    /// Used to scale machine models down together with problem sizes so
    /// the data-set : cache ratio of the paper is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scaled(&self, factor: f64) -> CacheConfig {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        let way_bytes = self.line * u64::from(self.assoc);
        let target_sets = (self.sets() as f64 * factor).max(1.0);
        let sets = round_to_power_of_two(target_sets);
        CacheConfig {
            size: sets * way_bytes,
            ..*self
        }
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (size, unit) = if self.size >= 1 << 20 {
            (self.size >> 20, "MB")
        } else {
            (self.size >> 10, "KB")
        };
        write!(f, "{size}{unit}/{}-way/{}B-line", self.assoc, self.line)
    }
}

pub(crate) fn round_to_power_of_two(x: f64) -> u64 {
    let lower = (x.log2().floor()).exp2();
    let upper = lower * 2.0;
    let rounded = if x - lower <= upper - x { lower } else { upper };
    rounded.max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r8000_l2_geometry() {
        let c = CacheConfig::new(2 << 20, 128, 4).unwrap();
        assert_eq!(c.sets(), 4096);
        assert_eq!(c.lines(), 16384);
        assert_eq!(c.to_string(), "2MB/4-way/128B-line");
    }

    #[test]
    fn direct_mapped_geometry() {
        let c = CacheConfig::new(16 << 10, 32, 1).unwrap();
        assert_eq!(c.sets(), 512);
        assert_eq!(c.to_string(), "16KB/1-way/32B-line");
    }

    #[test]
    fn rejects_zero_params() {
        assert!(CacheConfig::new(0, 32, 1).is_err());
        assert!(CacheConfig::new(1024, 0, 1).is_err());
        assert!(CacheConfig::new(1024, 32, 0).is_err());
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CacheConfig::new(3000, 32, 1).is_err());
        assert!(CacheConfig::new(4096, 48, 1).is_err());
    }

    #[test]
    fn rejects_indivisible_geometry() {
        // 1024 bytes, 128-byte lines, 16 ways => 0.5 sets.
        assert!(CacheConfig::new(1024, 128, 16).is_err());
    }

    #[test]
    fn fully_associative_has_one_set() {
        let c = CacheConfig::new(1 << 20, 128, 2)
            .unwrap()
            .fully_associative();
        assert_eq!(c.sets(), 1);
        assert_eq!(c.assoc(), 8192);
        assert_eq!(c.size(), 1 << 20);
    }

    #[test]
    fn scaling_preserves_line_and_assoc() {
        let c = CacheConfig::new(2 << 20, 128, 4).unwrap();
        let s = c.scaled(1.0 / 16.0);
        assert_eq!(s.size(), 128 << 10);
        assert_eq!(s.line(), 128);
        assert_eq!(s.assoc(), 4);
        // Scaling never drops below one set.
        let tiny = c.scaled(1e-9);
        assert_eq!(tiny.sets(), 1);
    }

    #[test]
    fn scaling_rounds_to_power_of_two() {
        let c = CacheConfig::new(1 << 20, 128, 2).unwrap();
        let s = c.scaled(0.3); // 4096 sets * 0.3 = 1228.8 -> 1024
        assert_eq!(s.sets(), 1024);
    }

    #[test]
    fn error_display_mentions_cause() {
        let err = CacheConfig::new(3000, 32, 1).unwrap_err();
        assert!(err.to_string().contains("power of two"));
    }
}
