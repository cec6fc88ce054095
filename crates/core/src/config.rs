//! Scheduler configuration (the paper's `th_init`).

use crate::hint::MAX_DIMS;
use crate::policy::BinPolicy as _;
use crate::Hints;
use std::error::Error;
use std::fmt;

/// Error returned when a [`SchedulerConfig`] is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scheduler configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// How idle [`ParScheduler`](crate::ParScheduler) workers acquire more
/// bins once their own deque drains.
///
/// The initial schedule partitions the bin tour contiguously across
/// workers, so each worker starts with a contiguous stretch of
/// scheduling space. Stealing trades that contiguity for load balance;
/// the policy controls *how much* locality each steal gives up:
///
/// - [`None`](StealPolicy::None): never steal. Workers exit when their
///   own deque drains; load imbalance translates directly into idle
///   cores, but every bin runs on the worker whose tour segment it was
///   assigned to.
/// - [`Random`](StealPolicy::Random): steal from a uniformly random
///   victim, the classic Cilk/ABP discipline. Balances load but is
///   oblivious to scheduling-space distance.
/// - [`LocalityAware`](StealPolicy::LocalityAware): prefer the victim
///   whose *cold end* (the back of its deque — the work it will reach
///   last) is farthest in scheduling space from the bin that victim is
///   currently executing. Stolen bins are the ones least likely to
///   share cache-sized working set with the victim's near-term work,
///   so the steal costs the victim the least locality.
///
/// All stealing policies take half the victim's deque from the back
/// (cold end), preserving tour order within each fragment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StealPolicy {
    /// Never steal; static contiguous partition only.
    None,
    /// Steal from a uniformly random victim (seeded deterministically
    /// per worker).
    Random,
    /// Steal from the victim whose cold end is farthest (Manhattan
    /// distance over block coordinates) from its current bin.
    #[default]
    LocalityAware,
}

impl fmt::Display for StealPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StealPolicy::None => "none",
            StealPolicy::Random => "random",
            StealPolicy::LocalityAware => "locality-aware",
        })
    }
}

/// When a scheduler frees bin records that
/// [`Scheduler::drain_next`](crate::Scheduler::drain_next) drained
/// empty, bounding the bin table for long-running serving workloads.
/// The policy is armed when the scheduler is built; a batch
/// [`run`](crate::Scheduler::run) drains nothing into idleness, so only
/// online drains make candidates.
///
/// The paper's package never frees a bin record: for a batch run the
/// table is recycled wholesale between phases, so leaking records is
/// invisible. A serving process that streams requests forever has no
/// such phase boundary — without eviction the bin table (and, for
/// [`UniqueBin`](crate::UniqueBin), the key space) grows monotonically
/// for the life of the process.
///
/// Eviction is **order-neutral and insert-driven**:
///
/// * Only bins that have been drained and are currently empty are ever
///   freed. A live (non-empty) bin is never touched, and the ready list
///   is not reordered, so the drain order of live bins is exactly what
///   it would have been without eviction.
/// * Candidates are only reaped during a fork (insert). A run whose
///   arrivals all precede its drains — the t=0 batch-equivalence case —
///   therefore never evicts at all.
/// * An evicted key that re-arrives allocates a fresh bin record and
///   queues at the *back* of the ready order — indistinguishable from a
///   refilled bin, which also re-queues at the back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    /// Never free bin records (the paper's behaviour; the default).
    #[default]
    Off,
    /// Cap the number of live bin records: whenever an insert grows the
    /// table past `max_records`, the least-recently-drained empty
    /// records are freed until the cap holds (or no empty record
    /// remains — non-empty bins are never evicted, so the cap is only
    /// guaranteed when it exceeds the peak number of concurrently
    /// non-empty bins, e.g. the admission queue bound).
    LruCap {
        /// Maximum live bin records the table should hold (≥ 1).
        max_records: u64,
    },
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictionPolicy::Off => f.write_str("off"),
            EvictionPolicy::LruCap { max_records } => write!(f, "lru-cap({max_records})"),
        }
    }
}

/// Configuration of a locality [`Scheduler`](crate::Scheduler):
/// block sizes, hash-table size, symmetric-hint folding, work stealing
/// and online eviction.
///
/// The paper's `th_init(blocksize, hashsize)` sets a single block size
/// used in every dimension; [`SchedulerConfigBuilder::block_size`] does
/// the same, and [`block_sizes`](SchedulerConfigBuilder::block_sizes)
/// additionally allows per-dimension sizes. Block sizes must be powers
/// of two because the default hash "simply performs a shift and a mask
/// operation on each hint" (§3.2) — the shift is `log2(block size)`.
///
/// # Examples
///
/// ```
/// use locality_sched::SchedulerConfig;
///
/// // Paper default for a 2 MB L2 and 2-D hints: each block dimension is
/// // half the cache, so the dimensions sum to the cache size.
/// let config = SchedulerConfig::for_cache(2 << 20, 2)?;
/// assert_eq!(config.block_size(0), 1 << 20);
/// assert_eq!(config.block_size(1), 1 << 20);
/// # Ok::<(), locality_sched::ConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    block_sizes: [u64; MAX_DIMS],
    shifts: [u32; MAX_DIMS],
    hash_size: usize,
    symmetric: bool,
    steal: StealPolicy,
    eviction: EvictionPolicy,
}

/// Builder for [`SchedulerConfig`].
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfigBuilder {
    block_sizes: [u64; MAX_DIMS],
    hash_size: usize,
    symmetric: bool,
    steal: StealPolicy,
    eviction: EvictionPolicy,
}

/// Default block dimension: one third of a 2 MB L2, rounded down to a
/// power of two — the paper's 3-D default rule applied to its larger
/// test machine. Override with
/// [`SchedulerConfig::for_cache`] for a specific machine.
const DEFAULT_BLOCK: u64 = 512 << 10;

/// Default hash-table size per dimension.
const DEFAULT_HASH_SIZE: usize = 16;

impl Default for SchedulerConfigBuilder {
    fn default() -> Self {
        SchedulerConfigBuilder {
            block_sizes: [DEFAULT_BLOCK; MAX_DIMS],
            hash_size: DEFAULT_HASH_SIZE,
            symmetric: false,
            steal: StealPolicy::default(),
            eviction: EvictionPolicy::default(),
        }
    }
}

impl SchedulerConfigBuilder {
    /// Sets the same block size (bytes) for every dimension, like the
    /// paper's `th_init(blocksize, …)`. Must be a power of two.
    pub fn block_size(mut self, bytes: u64) -> Self {
        self.block_sizes = [bytes; MAX_DIMS];
        self
    }

    /// Sets per-dimension block sizes (bytes); each must be a power of
    /// two.
    pub fn block_sizes(mut self, bytes: [u64; MAX_DIMS]) -> Self {
        self.block_sizes = bytes;
        self
    }

    /// Sets the per-dimension size of the *traced* package's hash
    /// table: the paper's `hash_size⁴` array of bucket pointers, whose
    /// addresses [`trace_package_memory`](crate::Scheduler::trace_package_memory)
    /// probes. It sizes nothing on the host, where the bin table grows
    /// with the live bins. Must be a power of two, at most 32.
    pub fn hash_size(mut self, size: usize) -> Self {
        self.hash_size = size;
        self
    }

    /// Enables symmetric-hint folding: hints `(hᵢ, hⱼ)` and `(hⱼ, hᵢ)`
    /// land in the same bin "since they reference the same pieces of
    /// data", halving the bin count (§2.3).
    pub fn symmetric(mut self, symmetric: bool) -> Self {
        self.symmetric = symmetric;
        self
    }

    /// Sets the work-stealing policy for
    /// [`ParScheduler`](crate::ParScheduler) (default:
    /// [`StealPolicy::LocalityAware`]). The sequential
    /// [`Scheduler`](crate::Scheduler) ignores this knob.
    pub fn steal_policy(mut self, steal: StealPolicy) -> Self {
        self.steal = steal;
        self
    }

    /// Sets the bin-record eviction policy for the *online* engine
    /// (default: [`EvictionPolicy::Off`], the paper's never-free
    /// behaviour). Batch runs ignore this knob: the table is recycled
    /// wholesale between phases, so there is nothing to reap.
    pub fn eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if any block size or the hash size is zero or
    /// not a power of two.
    pub fn build(self) -> Result<SchedulerConfig, ConfigError> {
        let mut shifts = [0u32; MAX_DIMS];
        for (dim, &size) in self.block_sizes.iter().enumerate() {
            if size == 0 || !size.is_power_of_two() {
                return Err(ConfigError::new(format!(
                    "block size {size} in dimension {dim} is not a nonzero power of two"
                )));
            }
            shifts[dim] = size.trailing_zeros();
        }
        if self.hash_size == 0 || !self.hash_size.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "hash size {} is not a nonzero power of two",
                self.hash_size
            )));
        }
        if self.hash_size > 32 {
            return Err(ConfigError::new(format!(
                "hash size {} exceeds 32 (the traced bucket array spans hash_size^{MAX_DIMS} pointers)",
                self.hash_size
            )));
        }
        if self.eviction == (EvictionPolicy::LruCap { max_records: 0 }) {
            return Err(ConfigError::new(
                "lru-cap eviction requires max_records >= 1",
            ));
        }
        Ok(SchedulerConfig {
            block_sizes: self.block_sizes,
            shifts,
            hash_size: self.hash_size,
            symmetric: self.symmetric,
            steal: self.steal,
            eviction: self.eviction,
        })
    }
}

impl SchedulerConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> SchedulerConfigBuilder {
        SchedulerConfigBuilder::default()
    }

    /// The paper's default rule: block dimensions sized so that `dims`
    /// of them sum to `cache_size` (each rounded down to a power of
    /// two). "The default dimension sizes of the block are set such
    /// that their sum are the same as the second-level cache size"
    /// (§3.2).
    ///
    /// # Errors
    ///
    /// Returns an error if `dims` is zero or exceeds
    /// [`MAX_DIMS`](crate::Hints), or if `cache_size / dims` rounds to
    /// zero.
    pub fn for_cache(cache_size: u64, dims: usize) -> Result<Self, ConfigError> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(ConfigError::new(format!(
                "hint dimensionality {dims} out of range 1..={MAX_DIMS}"
            )));
        }
        let per_dim = cache_size / dims as u64;
        if per_dim == 0 {
            return Err(ConfigError::new(format!(
                "cache size {cache_size} too small for {dims} dimensions"
            )));
        }
        let block = prev_power_of_two(per_dim);
        SchedulerConfig::builder().block_size(block).build()
    }

    /// Block size in bytes for dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= MAX_DIMS`.
    pub fn block_size(&self, dim: usize) -> u64 {
        self.block_sizes[dim]
    }

    /// Traced hash-table size per dimension.
    pub fn hash_size(&self) -> usize {
        self.hash_size
    }

    /// Whether symmetric-hint folding is enabled.
    pub fn symmetric(&self) -> bool {
        self.symmetric
    }

    /// The configured work-stealing policy.
    pub fn steal_policy(&self) -> StealPolicy {
        self.steal
    }

    /// The configured online bin-record eviction policy.
    pub fn eviction(&self) -> EvictionPolicy {
        self.eviction
    }

    /// Per-dimension shifts (`log2(block size)`), for policy
    /// construction.
    pub(crate) fn shifts(&self) -> [u32; MAX_DIMS] {
        self.shifts
    }

    /// Maps hints to block coordinates in the scheduling space: each
    /// hint address divided by its dimension's block size, with
    /// symmetric folding applied if configured.
    ///
    /// Delegates to [`TopologyPolicy::from_config`](crate::TopologyPolicy::from_config),
    /// the single owner of the paper's hints → bin-key mapping.
    #[inline]
    pub fn block_coords(&self, hints: Hints) -> [u64; MAX_DIMS] {
        crate::policy::TopologyPolicy::from_config(self).bin_key(hints)
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::builder()
            .build()
            .expect("default configuration is valid")
    }
}

impl fmt::Display for SchedulerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blocks [{}, {}, {}, {}] hash {}^4{}",
            self.block_sizes[0],
            self.block_sizes[1],
            self.block_sizes[2],
            self.block_sizes[3],
            self.hash_size,
            if self.symmetric { " symmetric" } else { "" },
        )
    }
}

/// Largest power of two ≤ `x` — how every cache budget in the
/// workspace rounds down to a block size.
///
/// # Panics
///
/// If `x` is zero.
pub fn prev_power_of_two(x: u64) -> u64 {
    assert!(x > 0, "no power of two is <= 0");
    1 << (63 - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::Addr;

    #[test]
    fn builder_defaults_are_valid() {
        let c = SchedulerConfig::default();
        assert_eq!(c.block_size(0), 512 << 10);
        assert_eq!(c.hash_size(), 16);
        assert!(!c.symmetric());
    }

    #[test]
    fn for_cache_follows_paper_rule() {
        // 2 MB cache, 2-D: each dim 1 MB (dims sum to cache size).
        let c = SchedulerConfig::for_cache(2 << 20, 2).unwrap();
        assert_eq!(c.block_size(0), 1 << 20);
        // 2 MB cache, 3-D: 2M/3 = 699050 -> 512 KiB.
        let c = SchedulerConfig::for_cache(2 << 20, 3).unwrap();
        assert_eq!(c.block_size(0), 512 << 10);
    }

    #[test]
    fn for_cache_rejects_bad_dims() {
        assert!(SchedulerConfig::for_cache(1 << 20, 0).is_err());
        assert!(
            SchedulerConfig::for_cache(1 << 20, 4).is_ok(),
            "4-D is supported"
        );
        assert!(SchedulerConfig::for_cache(1 << 20, 5).is_err());
        assert!(SchedulerConfig::for_cache(2, 3).is_err());
    }

    #[test]
    fn build_rejects_non_power_of_two() {
        assert!(SchedulerConfig::builder().block_size(3000).build().is_err());
        assert!(SchedulerConfig::builder().block_size(0).build().is_err());
        assert!(SchedulerConfig::builder().hash_size(12).build().is_err());
        assert!(SchedulerConfig::builder().hash_size(0).build().is_err());
        assert!(SchedulerConfig::builder().hash_size(64).build().is_err());
        assert!(SchedulerConfig::builder().hash_size(32).build().is_ok());
    }

    #[test]
    fn block_coords_shift_by_block_size() {
        let c = SchedulerConfig::builder().block_size(1024).build().unwrap();
        let coords = c.block_coords(Hints::two(Addr::new(4096), Addr::new(1023)));
        assert_eq!(coords, [4, 0, 0, 0]);
    }

    #[test]
    fn per_dimension_block_sizes() {
        let c = SchedulerConfig::builder()
            .block_sizes([1024, 2048, 4096, 8192])
            .build()
            .unwrap();
        let coords = c.block_coords(Hints::four(
            Addr::new(4096),
            Addr::new(4096),
            Addr::new(4096),
            Addr::new(16384),
        ));
        assert_eq!(coords, [4, 2, 1, 2]);
    }

    #[test]
    fn symmetric_folding_canonicalizes() {
        let c = SchedulerConfig::builder()
            .block_size(1024)
            .symmetric(true)
            .build()
            .unwrap();
        let ab = c.block_coords(Hints::two(Addr::new(1024), Addr::new(2048)));
        let ba = c.block_coords(Hints::two(Addr::new(2048), Addr::new(1024)));
        assert_eq!(ab, ba);
        assert_eq!(ab, [2, 1, 0, 0]);
    }

    #[test]
    fn asymmetric_keeps_order() {
        let c = SchedulerConfig::builder().block_size(1024).build().unwrap();
        let ab = c.block_coords(Hints::two(Addr::new(1024), Addr::new(2048)));
        let ba = c.block_coords(Hints::two(Addr::new(2048), Addr::new(1024)));
        assert_ne!(ab, ba);
    }

    #[test]
    fn steal_policy_knob_round_trips() {
        assert_eq!(
            SchedulerConfig::default().steal_policy(),
            StealPolicy::LocalityAware
        );
        for policy in [
            StealPolicy::None,
            StealPolicy::Random,
            StealPolicy::LocalityAware,
        ] {
            let c = SchedulerConfig::builder()
                .steal_policy(policy)
                .build()
                .unwrap();
            assert_eq!(c.steal_policy(), policy);
        }
        assert_eq!(StealPolicy::None.to_string(), "none");
        assert_eq!(StealPolicy::Random.to_string(), "random");
        assert_eq!(StealPolicy::LocalityAware.to_string(), "locality-aware");
    }

    #[test]
    fn eviction_knob_round_trips_and_validates() {
        assert_eq!(SchedulerConfig::default().eviction(), EvictionPolicy::Off);
        for policy in [
            EvictionPolicy::Off,
            EvictionPolicy::LruCap { max_records: 128 },
        ] {
            let c = SchedulerConfig::builder().eviction(policy).build().unwrap();
            assert_eq!(c.eviction(), policy);
        }
        assert!(SchedulerConfig::builder()
            .eviction(EvictionPolicy::LruCap { max_records: 0 })
            .build()
            .is_err());
        assert_eq!(EvictionPolicy::Off.to_string(), "off");
        assert_eq!(
            EvictionPolicy::LruCap { max_records: 128 }.to_string(),
            "lru-cap(128)"
        );
    }

    #[test]
    fn error_display_is_meaningful() {
        let err = SchedulerConfig::builder()
            .block_size(3)
            .build()
            .unwrap_err();
        let s = err.to_string();
        assert!(s.contains("power of two"), "{s}");
        assert!(s.starts_with("invalid scheduler configuration"), "{s}");
    }
}
