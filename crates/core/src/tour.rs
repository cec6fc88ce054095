//! Bin traversal orders.
//!
//! A tour is one function, [`Tour::rank`]: the batch order sorts bins
//! by it and the online drain pops ready units by it, so the two paths
//! cannot disagree — bins that tie on the rank go in allocation order
//! on both.

use crate::hint::MAX_DIMS;
use crate::table::BinId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The order in which `run` visits non-empty bins.
///
/// The paper (§2.3): "Scheduling involves traversing the bins along
/// some path, preferably the shortest one", and its implementation
/// (§3.2) visits bins in ready-list (allocation) order. The
/// alternatives here let the `ablation` study quantify how much the
/// tour matters once threads are binned:
///
/// * [`AllocationOrder`](Tour::AllocationOrder) — the paper's
///   implementation; for loop-nest workloads, creation order already
///   yields a near-monotone walk of the scheduling plane.
/// * [`SortedKey`](Tour::SortedKey) — lexicographic over block
///   coordinates (row-major walk of the plane).
/// * [`Hilbert`](Tour::Hilbert) — Hilbert space-filling curve over the
///   first two dimensions: an O(1)-per-bin approximation of the
///   "shortest tour" the paper gestures at, guaranteeing adjacent bins
///   differ in one block step. The curve covers dimensions 0–1 *only*
///   (while keys carry [`MAX_DIMS`] = 4 coordinates); see
///   [`Hilbert`](Tour::Hilbert) for the dimension-2/3 tie-break.
/// * [`Morton`](Tour::Morton) — Z-order over the first three
///   dimensions; bins that tie on the 3-D code drain in ascending
///   dimension 3.
/// * [`Random`](Tour::Random) — seeded random order; the adversarial
///   baseline (destroys inter-bin locality while keeping intra-bin
///   locality).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tour {
    /// Visit bins in allocation order (paper's ready list).
    AllocationOrder,
    /// Visit bins in lexicographic block-coordinate order.
    SortedKey,
    /// Visit bins along a 2-D Hilbert curve over dimensions 0 and 1.
    ///
    /// The curve covers only the first two dimensions even though keys
    /// are 4-D: bins sharing a (dim-0, dim-1) plane cell sort by the
    /// lexicographic tie-break `(dim 2, dim 3)`, so all of a plane
    /// cell's bins drain contiguously (ascending in dims 2–3) before
    /// the tour takes its next unit step in the plane. For 3-D hint
    /// workloads (nbody's x/y/z) this means the tour is Hilbert-local
    /// in x/y and sweeps z slabs in order within each column — it does
    /// *not* take unit steps in z across plane cells.
    Hilbert,
    /// Visit bins in 3-D Morton (Z-curve) order.
    Morton,
    /// Visit bins in seeded random order.
    Random(u64),
}

impl Tour {
    /// Computes the visit order over bins whose block coordinates are
    /// `keys` (indexed by bin id): the key tours sort by
    /// [`rank`](Tour::rank), ties going to the bin allocated first —
    /// the order the online drain pops ready units in.
    pub(crate) fn order(&self, keys: &[[u64; MAX_DIMS]]) -> Vec<BinId> {
        let mut ids: Vec<BinId> = (0..keys.len() as BinId).collect();
        match *self {
            Tour::AllocationOrder => {}
            Tour::SortedKey | Tour::Hilbert | Tour::Morton => {
                ids.sort_unstable_by_key(|&id| (self.rank(keys[id as usize]), id));
            }
            Tour::Random(seed) => {
                let mut rng = SmallRng::seed_from_u64(seed);
                ids.shuffle(&mut rng);
            }
        }
        ids
    }

    /// Total-order rank of one bin key under this tour — what the
    /// batch [`order`](Tour::order) sorts by, and what the
    /// *incremental* (online) drain pops by: among the currently-ready
    /// drain units the engine picks the minimal `(rank, ready_seq)`, so
    /// two ready units always compare the same way the batch tour
    /// orders them.
    ///
    /// [`AllocationOrder`](Tour::AllocationOrder) ranks every key
    /// equally — the tie-break on the ready sequence number then yields
    /// exactly the paper's ready list (FIFO by the moment a bin first
    /// received work). [`Random`](Tour::Random) cannot reproduce the
    /// batch shuffle incrementally (a shuffle needs the whole
    /// population); it degrades to a seeded hash of the key —
    /// stationary and deterministic, but *not* the offline permutation.
    pub(crate) fn rank(&self, key: [u64; MAX_DIMS]) -> [u64; MAX_DIMS] {
        match *self {
            Tour::AllocationOrder => [0; MAX_DIMS],
            Tour::SortedKey => key,
            Tour::Hilbert => [hilbert_d(key[0], key[1]), key[2], key[3], 0],
            Tour::Morton => [morton3(key[0], key[1], key[2]), key[3], 0, 0],
            Tour::Random(seed) => [scramble(seed, key), 0, 0, 0],
        }
    }
}

/// SplitMix64-style finalizer over a seeded fold of the key words: the
/// stationary stand-in for [`Tour::Random`]'s batch shuffle in
/// incremental mode.
fn scramble(seed: u64, key: [u64; MAX_DIMS]) -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for word in key {
        x = (x ^ word).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
    }
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bits per coordinate for the space-filling curves. Block coordinates
/// are addresses divided by block sizes of at least 2⁶, so 29 bits
/// cover a 2³⁵-byte hint space — far beyond any workload here.
const CURVE_BITS: u32 = 29;

/// Maps (x, y) to its distance along a 2-D Hilbert curve of order
/// [`CURVE_BITS`]. Coordinates beyond the curve's extent are clamped.
fn hilbert_d(x: u64, y: u64) -> u64 {
    let n: u64 = 1 << CURVE_BITS;
    let mut x = x.min(n - 1);
    let mut y = y.min(n - 1);
    let mut d: u64 = 0;
    let mut s: u64 = n / 2;
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate the quadrant (classic xy2d rotation).
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Interleaves the low 21 bits of three coordinates into a Morton code.
fn morton3(x: u64, y: u64, z: u64) -> u64 {
    fn spread(v: u64) -> u64 {
        let mut v = v & 0x1f_ffff; // 21 bits
        v = (v | (v << 32)) & 0x1f00000000ffff;
        v = (v | (v << 16)) & 0x1f0000ff0000ff;
        v = (v | (v << 8)) & 0x100f00f00f00f00f;
        v = (v | (v << 4)) & 0x10c30c30c30c30c3;
        v = (v | (v << 2)) & 0x1249249249249249;
        v
    }
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_keys(n: u64) -> Vec<[u64; MAX_DIMS]> {
        let mut keys = Vec::new();
        for x in 0..n {
            for y in 0..n {
                keys.push([x, y, 0, 0]);
            }
        }
        keys
    }

    fn is_permutation(order: &[BinId], len: usize) -> bool {
        let mut seen = vec![false; len];
        for &id in order {
            if seen[id as usize] {
                return false;
            }
            seen[id as usize] = true;
        }
        order.len() == len
    }

    #[test]
    fn every_tour_is_a_permutation() {
        let keys = grid_keys(7);
        for tour in [
            Tour::AllocationOrder,
            Tour::SortedKey,
            Tour::Hilbert,
            Tour::Morton,
            Tour::Random(42),
        ] {
            let order = tour.order(&keys);
            assert!(is_permutation(&order, keys.len()), "{tour:?}");
        }
    }

    #[test]
    fn allocation_order_is_identity() {
        let keys = grid_keys(3);
        let order = Tour::AllocationOrder.order(&keys);
        assert_eq!(order, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_key_is_lexicographic() {
        let keys = vec![[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [1, 5, 0, 0]];
        let order = Tour::SortedKey.order(&keys);
        assert_eq!(order, vec![2, 1, 3, 0]);
    }

    #[test]
    fn random_is_seeded_deterministic() {
        let keys = grid_keys(5);
        let a = Tour::Random(7).order(&keys);
        let b = Tour::Random(7).order(&keys);
        let c = Tour::Random(8).order(&keys);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ (w.h.p.)");
    }

    #[test]
    fn hilbert_visits_neighbours() {
        // On a full 2^k x 2^k grid the Hilbert tour moves exactly one
        // step (Manhattan distance 1) between consecutive bins.
        let n = 8;
        let keys = grid_keys(n);
        let order = Tour::Hilbert.order(&keys);
        for pair in order.windows(2) {
            let a = keys[pair[0] as usize];
            let b = keys[pair[1] as usize];
            let dist = a[0].abs_diff(b[0]) + a[1].abs_diff(b[1]);
            assert_eq!(dist, 1, "{a:?} -> {b:?}");
        }
    }

    #[test]
    fn hilbert_three_d_keys_tie_break_on_trailing_dims() {
        // nbody-style 3-D hints: a 4x4 plane of cells, each with two z
        // slabs. The curve orders plane cells; dims 2-3 only break
        // ties within a cell.
        let mut keys = Vec::new();
        for z in 0..2u64 {
            for x in 0..4u64 {
                for y in 0..4u64 {
                    keys.push([x, y, z, 0]);
                }
            }
        }
        let order = Tour::Hilbert.order(&keys);
        for pair in order.windows(2) {
            let a = keys[pair[0] as usize];
            let b = keys[pair[1] as usize];
            if (a[0], a[1]) == (b[0], b[1]) {
                // Same plane cell: the z slabs drain in ascending
                // order, back-to-back.
                assert!(a[2] < b[2], "tie-break ascending in dim 2: {a:?} -> {b:?}");
            } else {
                // New plane cell: a Hilbert unit step, entered at the
                // lowest z slab after fully draining the previous cell.
                let dist = a[0].abs_diff(b[0]) + a[1].abs_diff(b[1]);
                assert_eq!(dist, 1, "adjacent plane cells: {a:?} -> {b:?}");
                assert_eq!(a[2], 1, "previous cell drained to its last slab");
                assert_eq!(b[2], 0, "next cell starts at its first slab");
            }
        }
    }

    #[test]
    fn hilbert_distance_is_injective_on_grid() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..16u64 {
            for y in 0..16u64 {
                assert!(seen.insert(hilbert_d(x, y)), "collision at ({x},{y})");
            }
        }
    }

    #[test]
    fn morton_interleaves() {
        assert_eq!(morton3(0, 0, 0), 0);
        assert_eq!(morton3(1, 0, 0), 0b001);
        assert_eq!(morton3(0, 1, 0), 0b010);
        assert_eq!(morton3(0, 0, 1), 0b100);
        assert_eq!(morton3(3, 0, 0), 0b001001);
    }

    #[test]
    fn rank_order_matches_batch_order_for_key_tours() {
        // For the key-derived tours, sorting ready units by rank must
        // reproduce the batch tour exactly (keys are unique, and for
        // Morton the dim-3 values coincide, so no tie-break ambiguity).
        let mut keys = grid_keys(6);
        keys.iter_mut().enumerate().for_each(|(i, k)| {
            k[2] = (i as u64) % 3;
        });
        for tour in [Tour::SortedKey, Tour::Hilbert, Tour::Morton] {
            let batch = tour.order(&keys);
            let mut ranked: Vec<BinId> = (0..keys.len() as BinId).collect();
            ranked.sort_by_key(|&id| (tour.rank(keys[id as usize]), id));
            assert_eq!(ranked, batch, "{tour:?}");
        }
    }

    #[test]
    fn allocation_order_ranks_everything_equally() {
        let keys = grid_keys(4);
        let rank0 = Tour::AllocationOrder.rank(keys[0]);
        assert!(keys.iter().all(|&k| Tour::AllocationOrder.rank(k) == rank0));
    }

    #[test]
    fn random_rank_is_seeded_and_spread() {
        let keys = grid_keys(5);
        let a: Vec<_> = keys.iter().map(|&k| Tour::Random(7).rank(k)).collect();
        let b: Vec<_> = keys.iter().map(|&k| Tour::Random(7).rank(k)).collect();
        let c: Vec<_> = keys.iter().map(|&k| Tour::Random(8).rank(k)).collect();
        assert_eq!(a, b, "same seed, same ranks");
        assert_ne!(a, c, "different seeds should differ (w.h.p.)");
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "no collisions on a grid");
    }

    #[test]
    fn tours_on_empty_bin_set() {
        for tour in [Tour::AllocationOrder, Tour::Hilbert, Tour::Random(1)] {
            assert!(tour.order(&[]).is_empty(), "{tour:?}");
        }
    }
}
