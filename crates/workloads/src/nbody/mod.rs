//! The N-body benchmark, §4.4 of the paper: a three-dimensional
//! Barnes–Hut simulation. "Unlike the dense linear algebra programs,
//! N-body is an irregular and dynamic program … Since no memory
//! reference information is available at compile time, automatic tiling
//! is not feasible" — the case the thread package exists for.
//!
//! Each timestep rebuilds the Barnes–Hut octree, computes every body's
//! acceleration by θ-opening traversal (>88 % of the run time in the
//! paper's profile), and integrates with leapfrog. The two versions of
//! Table 8:
//!
//! * [`unthreaded`] — bodies processed in storage order, which is
//!   random in space, so consecutive force computations share little of
//!   the tree beyond its top levels.
//! * [`threaded`] — "the threaded version computes the new positions by
//!   forking one thread per body with three hints: the x, y, and z
//!   coordinates of the body. We normalized the positions to the unit
//!   cube and then scaled them to the dimensions of the scheduling
//!   plane. Thus, threads in the same scheduling block were computing
//!   the new positions of bodies that \[are\] near each other in space."
//!
//! Both versions compute identical forces from the same tree, so their
//! trajectories agree bitwise (asserted in tests).

mod tree;

pub use tree::{BhTree, LEAF_CAPACITY};

use crate::overhead::{FORK_INSTRUCTIONS, RUN_INSTRUCTIONS};
use crate::WorkloadReport;
use locality_sched::{
    Addr, BinPolicy, Hints, PaperBlockHash, RunMode, Scheduler, SchedulerConfig, SchedulerStats,
};
use memtrace::{AddressSpace, TraceSink, TracedBuf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One body. Layout is fixed (`repr(C)`) because traced accesses name
/// byte offsets.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Mass.
    pub mass: f64,
    /// Velocity.
    pub vel: [f64; 3],
    /// Acceleration (written by the force phase).
    pub acc: [f64; 3],
}

/// Bytes covering `pos` + `mass` (the fields force evaluation reads).
pub(crate) const BODY_POS_MASS_BYTES: u32 = 32;
/// Byte offset of `vel`.
pub(crate) const VEL_OFFSET: u64 = 32;
/// Byte offset of `acc`.
pub(crate) const ACC_OFFSET: u64 = 56;

/// Instructions per body for the leapfrog integration step.
pub const INTEGRATE_INSTRUCTIONS: u64 = 30;

/// Simulation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NBodyParams {
    /// Opening angle θ of the Barnes–Hut acceptance test (0 = exact).
    pub theta: f64,
    /// Plummer softening length.
    pub eps: f64,
    /// Leapfrog timestep.
    pub dt: f64,
    /// Extent, in hint-address bytes per dimension, of the scheduling
    /// plane the unit cube is scaled onto (paper §4.4: "we normalized
    /// the positions to the unit cube and then scaled them to the
    /// dimensions of the scheduling plane"). The plane is a property of
    /// the experiment, fixed independently of the scheduler's block
    /// size, so that sweeping the block size (Figure 4) coarsens or
    /// refines the binning. [`for_l2`](Self::for_l2) makes it ~4/3 of
    /// the L2 size: the package-default block (L2/3) then cuts each
    /// dimension into 4.
    pub plane_extent: u64,
    /// How many position coordinates become scheduling hints (1–3).
    /// The paper uses all three; lower dimensionalities exist for the
    /// hint-dimensionality ablation (its §6 notes experiments were
    /// "limited to 3 address hints").
    pub hint_dims: usize,
}

impl NBodyParams {
    /// The paper's parameters with the scheduling plane sized for an L2
    /// of `l2_bytes`: 4 blocks per side at the package's default block
    /// size (L2 / 3 dims), on a scaled machine as on the full-size one.
    pub fn for_l2(l2_bytes: u64) -> Self {
        NBodyParams {
            theta: 0.8,
            eps: 1e-3,
            dt: 1e-3,
            plane_extent: 4 * (l2_bytes / 3),
            hint_dims: 3,
        }
    }
}

impl Default for NBodyParams {
    /// [`for_l2`](Self::for_l2) of the R8000's 2 MB.
    fn default() -> Self {
        NBodyParams::for_l2(2 << 20)
    }
}

/// Bodies plus the reusable tree arena.
#[derive(Clone, Debug)]
pub struct NBodyData {
    /// The body vector, in random (spatially unsorted) storage order.
    pub bodies: TracedBuf<Body>,
    tree: BhTree,
}

impl NBodyData {
    /// Creates `n` bodies drawn from a Plummer-like clustered
    /// distribution inside the unit cube (centre-heavy, like the
    /// paper's astrophysical input — "the distribution of threads per
    /// bin was much less uniform than in the other examples. This
    /// corresponds to the distribution of the bodies in the three
    /// dimensional space").
    ///
    /// Storage order is random *within* top-level octants but grouped
    /// *by* octant, the coarse spatial correlation astrophysical
    /// initial-condition generators produce (and that the paper's
    /// modest unthreaded-vs-threaded gap implies its input had). For a
    /// fully random storage order — the worst case for the unthreaded
    /// version — use [`shuffle_storage_order`](Self::shuffle_storage_order).
    pub fn new(space: &mut AddressSpace, n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bodies = Vec::with_capacity(n);
        for _ in 0..n {
            // Plummer radial profile, truncated, mapped into [0,1]^3.
            let u: f64 = rng.gen_range(1e-6..1.0 - 1e-6);
            let r = 0.15 / (u.powf(-2.0 / 3.0) - 1.0).sqrt().max(0.05);
            let r = r.min(0.49);
            let cos_t: f64 = rng.gen_range(-1.0..1.0);
            let sin_t = (1.0 - cos_t * cos_t).sqrt();
            let phi: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let pos = [
                0.5 + r * sin_t * phi.cos(),
                0.5 + r * sin_t * phi.sin(),
                0.5 + r * cos_t,
            ];
            let vel = [
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
            ];
            bodies.push(Body {
                pos,
                mass: 1.0 / n as f64,
                vel,
                acc: [0.0; 3],
            });
        }
        // Group by top-level octant (coarse spatial correlation), keep
        // generation order (random) within each octant.
        bodies.sort_by_key(|b| {
            usize::from(b.pos[0] >= 0.5)
                | (usize::from(b.pos[1] >= 0.5) << 1)
                | (usize::from(b.pos[2] >= 0.5) << 2)
        });
        let bodies = TracedBuf::from_vec(space, bodies);
        let tree = BhTree::with_capacity(space, n);
        NBodyData { bodies, tree }
    }

    /// Randomly permutes the storage order of the bodies (untraced) —
    /// the fully uncorrelated worst case for the unthreaded version,
    /// used by the input-order ablation bench.
    pub fn shuffle_storage_order(&mut self, seed: u64) {
        use rand::seq::SliceRandom;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut all = self.snapshot();
        all.shuffle(&mut rng);
        self.restore(&all);
    }

    /// Number of bodies.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Returns `true` if there are no bodies.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// Snapshot of all body states (untraced), for version comparison.
    pub fn snapshot(&self) -> Vec<Body> {
        self.bodies.as_slice().to_vec()
    }

    /// Restores body states from a snapshot (untraced).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot has the wrong length.
    pub fn restore(&mut self, snapshot: &[Body]) {
        assert_eq!(snapshot.len(), self.len(), "snapshot length mismatch");
        for (i, body) in snapshot.iter().enumerate() {
            *self.bodies.at_mut(i) = *body;
        }
    }

    /// Sum of all position coordinates — a cheap checksum.
    pub fn checksum(&self) -> f64 {
        self.bodies
            .as_slice()
            .iter()
            .map(|b| b.pos[0] + b.pos[1] + b.pos[2])
            .sum()
    }

    /// The most recently built tree (for tests).
    pub fn tree(&self) -> &BhTree {
        &self.tree
    }

    /// Bounding cube of all bodies (untraced; the real code tracks this
    /// incrementally during integration, a negligible cost).
    fn bounding_cube(&self) -> ([f64; 3], f64) {
        if self.bodies.is_empty() {
            return ([0.5; 3], 0.5);
        }
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for b in self.bodies.as_slice() {
            for d in 0..3 {
                lo[d] = lo[d].min(b.pos[d]);
                hi[d] = hi[d].max(b.pos[d]);
            }
        }
        let center = [
            (lo[0] + hi[0]) / 2.0,
            (lo[1] + hi[1]) / 2.0,
            (lo[2] + hi[2]) / 2.0,
        ];
        let half = (0..3)
            .map(|d| (hi[d] - lo[d]) / 2.0)
            .fold(0.0f64, f64::max)
            .max(1e-9)
            * 1.0001;
        (center, half)
    }

    /// Rebuilds the Barnes–Hut tree over the current positions
    /// (traced).
    pub fn build_tree<S: TraceSink>(&mut self, sink: &mut S) {
        let (center, half) = self.bounding_cube();
        let NBodyData { bodies, tree } = self;
        tree.build(bodies, center, half, sink);
    }

    /// Leapfrog kick-and-drift for every body (traced).
    fn integrate<S: TraceSink>(&mut self, dt: f64, sink: &mut S) {
        for i in 0..self.bodies.len() {
            let (pos, vel, acc) = {
                let b = self.bodies.read_field(i, 0, 80, sink);
                (b.pos, b.vel, b.acc)
            };
            let vel = [
                vel[0] + acc[0] * dt,
                vel[1] + acc[1] * dt,
                vel[2] + acc[2] * dt,
            ];
            let pos = [
                pos[0] + vel[0] * dt,
                pos[1] + vel[1] * dt,
                pos[2] + vel[2] * dt,
            ];
            {
                let b = self.bodies.write_field(i, 0, VEL_OFFSET as u32 + 24, sink);
                b.pos = pos;
                b.vel = vel;
            }
            sink.instructions(INTEGRATE_INSTRUCTIONS);
        }
    }
}

/// Runs `iterations` timesteps with bodies processed in storage order.
pub fn unthreaded<S: TraceSink>(
    data: &mut NBodyData,
    iterations: usize,
    params: NBodyParams,
    sink: &mut S,
) -> WorkloadReport {
    for _ in 0..iterations {
        data.build_tree(sink);
        {
            let NBodyData { bodies, tree } = data;
            for i in 0..bodies.len() {
                tree.accelerate(i, bodies, params.theta, params.eps, sink);
            }
        }
        data.integrate(params.dt, sink);
    }
    WorkloadReport::unthreaded("nbody/unthreaded", data.checksum())
}

struct ForceCtx<'a, S> {
    tree: &'a BhTree,
    bodies: &'a mut TracedBuf<Body>,
    params: NBodyParams,
    sink: &'a mut S,
}

fn force_thread<S: TraceSink>(ctx: &mut ForceCtx<'_, S>, body: usize, _unused: usize) {
    ctx.sink.instructions(RUN_INSTRUCTIONS);
    ctx.tree
        .accelerate(body, ctx.bodies, ctx.params.theta, ctx.params.eps, ctx.sink);
}

/// Runs `iterations` timesteps, forking one force thread per body per
/// iteration, hinted by the body's position scaled into the scheduling
/// space (3-D hints).
pub fn threaded<S: TraceSink>(
    data: &mut NBodyData,
    iterations: usize,
    params: NBodyParams,
    config: SchedulerConfig,
    sink: &mut S,
) -> WorkloadReport {
    let policy = PaperBlockHash::from_config(&config);
    threaded_with(data, iterations, params, config, policy, sink)
}

/// [`threaded`] under an arbitrary [`BinPolicy`] — force threads within
/// a timestep are independent, so any drain order computes identical
/// accelerations; only the cache behaviour changes.
pub fn threaded_with<S: TraceSink, P: BinPolicy>(
    data: &mut NBodyData,
    iterations: usize,
    params: NBodyParams,
    config: SchedulerConfig,
    policy: P,
    sink: &mut S,
) -> WorkloadReport {
    let mut threads = 0u64;
    let mut last_stats: Option<SchedulerStats> = None;
    for it in 0..iterations {
        data.build_tree(sink);
        let (lo, extent) = {
            let (center, half) = data.bounding_cube();
            (
                [center[0] - half, center[1] - half, center[2] - half],
                2.0 * half,
            )
        };
        // Scale the unit cube onto the fixed scheduling plane; the
        // scheduler's block size then decides how finely the plane is
        // cut into bins.
        let scale = params.plane_extent as f64 / extent;
        let stats = {
            let mut sched: Scheduler<ForceCtx<'_, S>, P> =
                Scheduler::with_policy(config, policy.clone());
            sched.trace_package_memory();
            for i in 0..data.bodies.len() {
                let pos = data.bodies.at(i).pos;
                let hint = |d: usize| {
                    // A null address means "no hint", so offset by one
                    // plane extent to keep coordinate 0 distinct from
                    // "none".
                    let base = params.plane_extent as f64;
                    Addr::new((base + (pos[d] - lo[d]) * scale) as u64)
                };
                let hints = match params.hint_dims {
                    1 => Hints::one(hint(0)),
                    2 => Hints::two(hint(0), hint(1)),
                    _ => Hints::three(hint(0), hint(1), hint(2)),
                };
                sched.fork_traced(force_thread::<S>, i, 0, hints, sink);
                sink.instructions(FORK_INSTRUCTIONS);
            }
            let stats = sched.stats();
            let NBodyData { bodies, tree } = &mut *data;
            let mut ctx = ForceCtx {
                tree,
                bodies,
                params,
                sink,
            };
            sched.run_traced(&mut ctx, RunMode::Consume, |c| &mut *c.sink);
            stats
        };
        threads += stats.threads();
        if it + 1 == iterations {
            last_stats = Some(stats);
        }
        data.integrate(params.dt, sink);
    }
    let mut report = WorkloadReport::threaded(
        "nbody/threaded",
        data.checksum(),
        last_stats.unwrap_or_default(),
    );
    report.threads = threads;
    report
}

/// Direct O(n²) force summation (untraced reference for tests).
pub fn direct_accelerations(data: &NBodyData, eps: f64) -> Vec<[f64; 3]> {
    let bodies = data.bodies.as_slice();
    let mut out = vec![[0.0f64; 3]; bodies.len()];
    for (i, acc) in out.iter_mut().enumerate() {
        for (j, other) in bodies.iter().enumerate() {
            if i == j {
                continue;
            }
            let dx = other.pos[0] - bodies[i].pos[0];
            let dy = other.pos[1] - bodies[i].pos[1];
            let dz = other.pos[2] - bodies[i].pos[2];
            let dist2 = dx * dx + dy * dy + dz * dz + eps * eps;
            let inv = 1.0 / (dist2 * dist2.sqrt());
            acc[0] += other.mass * dx * inv;
            acc[1] += other.mass * dy * inv;
            acc[2] += other.mass * dz * inv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{CountingSink, NullSink};

    fn data(n: usize) -> NBodyData {
        let mut space = AddressSpace::new();
        NBodyData::new(&mut space, n, 2024)
    }

    fn config() -> SchedulerConfig {
        SchedulerConfig::builder()
            .block_size(1 << 16)
            .build()
            .unwrap()
    }

    #[test]
    fn body_layout_matches_offsets() {
        assert_eq!(std::mem::size_of::<Body>(), 80);
        assert_eq!(std::mem::offset_of!(Body, pos), 0);
        assert_eq!(std::mem::offset_of!(Body, mass), 24);
        assert_eq!(std::mem::offset_of!(Body, vel), VEL_OFFSET as usize);
        assert_eq!(std::mem::offset_of!(Body, acc), ACC_OFFSET as usize);
    }

    #[test]
    fn tree_contains_every_body_once() {
        let mut d = data(500);
        d.build_tree(&mut NullSink);
        let mut ids = d.tree().collect_bodies();
        ids.sort_unstable();
        assert_eq!(ids, (0..500u32).collect::<Vec<_>>());
    }

    #[test]
    fn tree_conserves_mass_and_com() {
        let mut d = data(300);
        d.build_tree(&mut NullSink);
        let total: f64 = d.bodies.as_slice().iter().map(|b| b.mass).sum();
        assert!((d.tree().total_mass() - total).abs() < 1e-12);
        let mut com = [0.0f64; 3];
        for b in d.bodies.as_slice() {
            for (c, p) in com.iter_mut().zip(b.pos) {
                *c += b.mass * p;
            }
        }
        for (dim, c) in com.iter().enumerate() {
            assert!((d.tree().root_com()[dim] - c / total).abs() < 1e-9);
        }
    }

    #[test]
    fn theta_zero_matches_direct_sum() {
        let mut d = data(120);
        let eps = 1e-3;
        d.build_tree(&mut NullSink);
        let direct = direct_accelerations(&d, eps);
        {
            let NBodyData { bodies, tree } = &mut d;
            for i in 0..bodies.len() {
                tree.accelerate(i, bodies, 0.0, eps, &mut NullSink);
            }
        }
        for (i, expect) in direct.iter().enumerate() {
            let got = d.bodies.at(i).acc;
            for dim in 0..3 {
                let scale = expect[dim].abs().max(1.0);
                assert!(
                    (got[dim] - expect[dim]).abs() < 1e-9 * scale,
                    "body {i} dim {dim}: {} vs {}",
                    got[dim],
                    expect[dim]
                );
            }
        }
    }

    #[test]
    fn positive_theta_approximates_direct_sum() {
        let mut d = data(200);
        let eps = 1e-3;
        d.build_tree(&mut NullSink);
        let direct = direct_accelerations(&d, eps);
        {
            let NBodyData { bodies, tree } = &mut d;
            for i in 0..bodies.len() {
                tree.accelerate(i, bodies, 0.5, eps, &mut NullSink);
            }
        }
        // Aggregate relative error should be small at theta = 0.5.
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, expect) in direct.iter().enumerate() {
            let got = d.bodies.at(i).acc;
            for dim in 0..3 {
                num += (got[dim] - expect[dim]).abs();
                den += expect[dim].abs();
            }
        }
        let rel = num / den;
        assert!(rel < 0.05, "theta=0.5 relative error {rel}");
    }

    #[test]
    fn threaded_matches_unthreaded_bitwise() {
        let mut d = data(400);
        let initial = d.snapshot();
        let params = NBodyParams::default();
        unthreaded(&mut d, 3, params, &mut NullSink);
        let reference = d.snapshot();
        d.restore(&initial);
        let report = threaded(&mut d, 3, params, config(), &mut NullSink);
        assert_eq!(d.snapshot(), reference);
        assert_eq!(report.threads, 3 * 400);
    }

    #[test]
    fn threaded_bins_are_nonuniform_for_clustered_bodies() {
        let mut d = data(2000);
        // 4x4x4 scheduling grid: plane extent of four blocks per side.
        let block = 1u64 << 19;
        let params = NBodyParams {
            plane_extent: 4 * block,
            ..NBodyParams::default()
        };
        let cfg = SchedulerConfig::builder()
            .block_size(block)
            .build()
            .unwrap();
        let report = threaded(&mut d, 1, params, cfg, &mut NullSink);
        let sched = report.sched.unwrap();
        assert!(
            sched.bins() > 4,
            "clustered bodies should span several bins"
        );
        assert!(
            sched.bin_size_cv() > 0.5,
            "Plummer clustering must look nonuniform, cv = {}",
            sched.bin_size_cv()
        );
    }

    #[test]
    fn motion_follows_gravity() {
        // Two bodies attract: after a few steps their separation
        // shrinks.
        let mut space = AddressSpace::new();
        let mut d = NBodyData::new(&mut space, 2, 5);
        *d.bodies.at_mut(0) = Body {
            pos: [0.25, 0.5, 0.5],
            mass: 0.5,
            vel: [0.0; 3],
            acc: [0.0; 3],
        };
        *d.bodies.at_mut(1) = Body {
            pos: [0.75, 0.5, 0.5],
            mass: 0.5,
            vel: [0.0; 3],
            acc: [0.0; 3],
        };
        let before = (d.bodies.at(1).pos[0] - d.bodies.at(0).pos[0]).abs();
        unthreaded(
            &mut d,
            5,
            NBodyParams {
                theta: 0.0,
                eps: 1e-4,
                dt: 1e-2,
                ..NBodyParams::default()
            },
            &mut NullSink,
        );
        let after = (d.bodies.at(1).pos[0] - d.bodies.at(0).pos[0]).abs();
        assert!(after < before, "bodies must fall toward each other");
    }

    #[test]
    fn traced_run_emits_references() {
        let mut d = data(100);
        let mut sink = CountingSink::new();
        unthreaded(&mut d, 1, NBodyParams::default(), &mut sink);
        assert!(
            sink.data_references() > 100 * 10,
            "tree walks must be traced"
        );
        assert!(sink.instructions_executed() > sink.data_references());
    }
}
