//! Seeded synthetic serving trace in the style of public cloud traces
//! (Zipf-skewed object popularity, bursty Poisson-modulated arrivals).
//!
//! [`TraceGen`] is an iterator: millions of requests stream through the
//! simulation without ever materializing the trace. All randomness is
//! SplitMix64 derived from [`TraceConfig::seed`], with no dependence on
//! platform, thread timing, or `HashMap` iteration order — the
//! determinism golden tests commit FNV-1a digests of generated
//! prefixes and those must reproduce everywhere. That is also why the
//! Zipf CDF and the exponential inter-arrival draw use
//! [`crate::detmath`] instead of `f64::powf`/`f64::ln`: libm is not
//! correctly rounded, so its results may differ between libc versions,
//! which would silently shift every committed golden.

use crate::detmath::{det_ln, det_powf};
use locality_sched::Hints;

/// Upper bound on the materialized CDF table (one `f64` per object).
/// A config asking for more objects than this is clamped rather than
/// aborting inside `Vec::with_capacity` on a huge or `usize`-overflow
/// request.
const MAX_CDF_OBJECTS: u64 = 1 << 26;

/// Parameters of one synthetic trace. Every field participates in the
/// generator's PRNG stream, so two configs differing in any field
/// produce different (but individually reproducible) traces.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceConfig {
    /// PRNG seed; the sole source of randomness.
    pub seed: u64,
    /// Number of requests the iterator yields.
    pub requests: u64,
    /// Size of the object universe requests draw from.
    pub objects: u64,
    /// Zipf skew exponent `s` (popularity of rank-k object ∝ k^-s).
    /// `0.0` is uniform; public serving traces cluster around 0.9–1.1.
    pub zipf_s: f64,
    /// Nominal bytes per object; actual request lengths vary by object
    /// (some objects are hot-but-small, see [`TraceGen::next`]).
    pub object_bytes: u64,
    /// Mean inter-arrival gap in calm periods, nanoseconds.
    pub mean_interarrival_ns: u64,
    /// Arrival-rate multiplier during bursts (inter-arrival gaps are
    /// divided by this). `1` disables burstiness.
    pub burst_factor: u64,
    /// Requests per burst period.
    pub burst_len: u64,
    /// Requests per calm period between bursts.
    pub calm_len: u64,
}

/// One timestamped serving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Position in the trace (0-based).
    pub id: u64,
    /// Absolute arrival time in virtual nanoseconds.
    pub arrival_ns: u64,
    /// Object the request reads (Zipf-ranked: 0 is hottest).
    pub object: u64,
    /// First byte of the object's placement in the simulated address
    /// space; doubles as the locality hint.
    pub addr: u64,
    /// Bytes the request touches (may be zero).
    pub bytes: u64,
}

impl Request {
    /// The locality hint handed to the scheduler: the object's base
    /// address, so requests for one object land in one bin.
    pub fn hints(&self) -> Hints {
        Hints::one(memtrace::Addr::new(self.addr))
    }
}

/// SplitMix64 step: the standard finalizer over a Weyl sequence.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in (0, 1]: 53 mantissa bits, never exactly zero so
/// `ln(u)` below is always finite.
fn unit_open(state: &mut u64) -> f64 {
    (((splitmix64(state) >> 11) + 1) as f64) * (1.0 / 9_007_199_254_740_992.0)
}

/// Streaming generator over a [`TraceConfig`].
///
/// Zipf sampling uses inverse-CDF over a precomputed cumulative table
/// (one `f64` per object, binary-searched per request) — exact, not an
/// approximation, and O(log objects) per draw.
pub struct TraceGen {
    config: TraceConfig,
    state: u64,
    emitted: u64,
    clock_ns: u64,
    /// Cumulative Zipf weights, normalized to end at 1.0.
    cdf: Vec<f64>,
}

impl TraceGen {
    /// Builds the generator, precomputing the popularity CDF. The
    /// object universe is clamped to `MAX_CDF_OBJECTS` (2^26) — the CDF is
    /// materialized one `f64` per object, and an absurd `objects` value
    /// must not become an allocator abort.
    pub fn new(config: TraceConfig) -> Self {
        let objects = config.objects.clamp(1, MAX_CDF_OBJECTS);
        let mut cdf =
            Vec::with_capacity(usize::try_from(objects).expect("objects clamped to 2^26"));
        let mut total = 0.0f64;
        for rank in 1..=objects {
            #[allow(clippy::cast_precision_loss)]
            let w = det_powf(rank as f64, -config.zipf_s);
            total += w;
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        TraceGen {
            config,
            state: config.seed ^ 0xA076_1D64_78BD_642F,
            emitted: 0,
            clock_ns: 0,
            cdf,
        }
    }

    /// The config this generator streams.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Draws an object id by inverse-CDF.
    fn draw_object(&mut self) -> u64 {
        let u = unit_open(&mut self.state);
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) as u64
    }

    /// Whether request number `n` falls in a burst period.
    fn in_burst(&self, n: u64) -> bool {
        let period = self.config.burst_len + self.config.calm_len;
        period > 0 && n % period < self.config.burst_len
    }
}

/// Deterministic placement of `object` in the simulated address space:
/// a SplitMix64 hash of `(seed, object)` scattered over `2^22` slots of
/// power-of-two stride, so hot objects don't sit in consecutive cache
/// sets.
pub fn object_addr(seed: u64, object: u64, object_bytes: u64) -> u64 {
    let stride = object_bytes.max(64).next_power_of_two();
    let mut state = seed ^ object.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let slot = splitmix64(&mut state) & ((1 << 22) - 1);
    slot * stride
}

impl Iterator for TraceGen {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.emitted >= self.config.requests {
            return None;
        }
        let id = self.emitted;
        self.emitted += 1;

        // Exponential inter-arrival, compressed during bursts. The
        // first request arrives at t=0 so every trace starts at the
        // epoch.
        if id > 0 {
            let mean = self.config.mean_interarrival_ns.max(1) as f64;
            let factor = if self.in_burst(id) {
                self.config.burst_factor.max(1) as f64
            } else {
                1.0
            };
            let u = unit_open(&mut self.state);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let dt = (-det_ln(u) * mean / factor).round() as u64;
            self.clock_ns = self.clock_ns.saturating_add(dt);
        } else {
            // Burn one draw so request 0's object draw stays aligned
            // with every other request's stream position.
            let _ = unit_open(&mut self.state);
        }

        let object = self.draw_object();
        let addr = object_addr(self.config.seed, object, self.config.object_bytes);
        // Request lengths vary by object: three quarters of objects are
        // served whole-to-eighth size, one in 64 is a zero-length
        // metadata probe (exercises the zero-byte admission edge).
        let bytes = if object % 64 == 63 {
            0
        } else {
            self.config.object_bytes >> (object & 3)
        };
        Some(Request {
            id,
            arrival_ns: self.clock_ns,
            object,
            addr,
            bytes,
        })
    }
}

/// FNV-1a over the little-endian field encoding of the first
/// `prefix` requests — the digest the determinism goldens commit.
pub fn trace_digest(config: TraceConfig, prefix: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for request in TraceGen::new(config).take(usize::try_from(prefix).unwrap_or(usize::MAX)) {
        fold(request.id);
        fold(request.arrival_ns);
        fold(request.object);
        fold(request.addr);
        fold(request.bytes);
    }
    hash
}

/// FNV-1a over the raw bit patterns of the precomputed Zipf CDF table
/// for `(objects, zipf_s)` — the golden that pins the popularity
/// distribution itself, one level below the request stream. If
/// `trace_digest` moves but this doesn't, the arrival process changed;
/// if this moves, the deterministic `powf` replacement changed.
pub fn cdf_digest(objects: u64, zipf_s: f64) -> u64 {
    let config = TraceConfig {
        seed: 0,
        requests: 0,
        objects,
        zipf_s,
        object_bytes: 1,
        mean_interarrival_ns: 1,
        burst_factor: 1,
        burst_len: 1,
        calm_len: 1,
    };
    let generator = TraceGen::new(config);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &c in &generator.cdf {
        for byte in c.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TraceConfig {
        TraceConfig {
            seed: 7,
            requests: 10_000,
            objects: 1024,
            zipf_s: 0.99,
            object_bytes: 4096,
            mean_interarrival_ns: 100,
            burst_factor: 8,
            burst_len: 64,
            calm_len: 192,
        }
    }

    #[test]
    fn yields_exactly_requests_in_nondecreasing_time() {
        let mut last = 0;
        let mut count = 0u64;
        for r in TraceGen::new(small()) {
            assert!(r.arrival_ns >= last, "time went backwards at {}", r.id);
            assert_eq!(r.id, count);
            last = r.arrival_ns;
            count += 1;
        }
        assert_eq!(count, small().requests);
    }

    #[test]
    fn same_seed_reproduces_different_seed_diverges() {
        let a: Vec<Request> = TraceGen::new(small()).collect();
        let b: Vec<Request> = TraceGen::new(small()).collect();
        assert_eq!(a, b);
        let c: Vec<Request> = TraceGen::new(TraceConfig { seed: 8, ..small() }).collect();
        assert_ne!(a, c);
        assert_ne!(
            trace_digest(small(), 10_000),
            trace_digest(TraceConfig { seed: 8, ..small() }, 10_000)
        );
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let hits_rank0 = TraceGen::new(small()).filter(|r| r.object == 0).count();
        let hits_rank500 = TraceGen::new(small()).filter(|r| r.object == 500).count();
        assert!(
            hits_rank0 > 10 * hits_rank500.max(1),
            "rank 0 {hits_rank0} vs rank 500 {hits_rank500}"
        );
    }

    #[test]
    fn uniform_skew_spreads_out() {
        let cfg = TraceConfig {
            zipf_s: 0.0,
            ..small()
        };
        let hits_rank0 = TraceGen::new(cfg).filter(|r| r.object == 0).count();
        // 10k draws over 1024 objects ≈ 10 each; rank 0 shouldn't
        // dominate without skew.
        assert!(hits_rank0 < 40, "uniform draw gave rank 0 {hits_rank0}");
    }

    #[test]
    fn bursts_compress_interarrival_gaps() {
        let reqs: Vec<Request> = TraceGen::new(small()).collect();
        let gap = |range: std::ops::Range<usize>| -> f64 {
            let mut total = 0u64;
            let mut n = 0u64;
            for w in reqs[range].windows(2) {
                total += w[1].arrival_ns - w[0].arrival_ns;
                n += 1;
            }
            total as f64 / n as f64
        };
        // Period is 256: requests 0..64 burst, 64..256 calm.
        let burst = gap(1..64);
        let calm = gap(64..256);
        assert!(
            burst * 3.0 < calm,
            "burst mean gap {burst:.1} not ≪ calm {calm:.1}"
        );
    }

    #[test]
    fn object_addresses_are_stable_aligned_and_scattered() {
        let a = object_addr(7, 42, 4096);
        assert_eq!(a, object_addr(7, 42, 4096));
        assert_eq!(a % 4096, 0);
        assert_ne!(a, object_addr(7, 43, 4096));
        assert_ne!(a, object_addr(8, 42, 4096));
    }

    #[test]
    fn zero_length_probes_exist() {
        assert!(TraceGen::new(small()).any(|r| r.bytes == 0));
    }

    #[test]
    fn digest_prefix_is_a_prefix_property() {
        // Digest over 100 must differ from digest over 200 (it folds
        // fewer records), but both must be stable across calls.
        let d100 = trace_digest(small(), 100);
        assert_eq!(d100, trace_digest(small(), 100));
        assert_ne!(d100, trace_digest(small(), 200));
    }
}
