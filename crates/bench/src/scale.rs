//! Problem/machine scaling presets.

use workloads::Kernel;

/// Problem sizes plus per-workload machine scale factors.
///
/// Trace-driven simulation of the paper's full problem sizes costs
/// 10⁹–10¹⁰ simulated references per version. The scaled presets shrink
/// each problem and the simulated machine's caches by the same factor,
/// preserving the data-set : cache ratios that determine capacity-miss
/// behaviour (the quantity every table in the paper turns on). The
/// ratios per workload:
///
/// * matmul (paper n = 1024): 24 MB of matrices vs 2 MB L2 → ratio 12.
/// * PDE (paper n = 2049): 3 × 33.6 MB arrays vs 2 MB → ratio ~50.
/// * SOR (paper n = 2005): 32 MB array vs 2 MB → ratio 16.
/// * N-body (paper 64,000 bodies): ~12 MB bodies+tree vs 2 MB → ratio ~6.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpScale {
    /// Matmul dimension.
    pub matmul_n: usize,
    /// Machine scale factor for matmul experiments.
    pub matmul_factor: f64,
    /// PDE grid dimension.
    pub pde_n: usize,
    /// PDE iterations ("iters ≤ 5 in practical multigrid solvers").
    pub pde_iters: usize,
    /// Machine scale factor for PDE experiments.
    pub pde_factor: f64,
    /// SOR array dimension.
    pub sor_n: usize,
    /// SOR sweep count.
    pub sor_t: usize,
    /// SOR tile size.
    pub sor_tile: usize,
    /// Machine scale factor for SOR experiments.
    pub sor_factor: f64,
    /// Body count.
    pub nbody_n: usize,
    /// N-body timesteps.
    pub nbody_iters: usize,
    /// Machine scale factor for N-body experiments.
    pub nbody_factor: f64,
    /// Requests the online serving experiment streams (`servebench`).
    pub serve_requests: u64,
}

impl ExpScale {
    /// The paper's exact problem sizes on the unscaled machines.
    /// Expect hours of simulation for the full suite.
    pub fn full() -> Self {
        ExpScale {
            matmul_n: 1024,
            matmul_factor: 1.0,
            pde_n: 2049,
            pde_iters: 5,
            pde_factor: 1.0,
            sor_n: 2005,
            sor_t: 30,
            sor_tile: 18,
            sor_factor: 1.0,
            nbody_n: 64_000,
            nbody_iters: 4,
            nbody_factor: 1.0,
            serve_requests: 4_000_000,
        }
    }

    /// The default ratio-preserving scale: every problem and its
    /// machine shrink 4–16×, keeping the paper's data : cache ratios.
    /// The whole suite simulates in a few minutes.
    pub fn default_scaled() -> Self {
        ExpScale {
            matmul_n: 256,             // 1.5 MB of matrices
            matmul_factor: 1.0 / 16.0, // 128 KB L2 -> ratio 12, as in the paper
            pde_n: 1025,
            pde_iters: 5,
            pde_factor: 1.0 / 4.0,
            sor_n: 1001,
            sor_t: 30,
            sor_tile: 18,
            sor_factor: 1.0 / 4.0,
            nbody_n: 16_000,
            nbody_iters: 4,
            nbody_factor: 1.0 / 4.0,
            serve_requests: 1_000_000,
        }
    }

    /// A tiny smoke-test scale for CI; shapes still hold, in minutes of
    /// CPU time they do not need.
    pub fn smoke() -> Self {
        ExpScale {
            matmul_n: 96,
            matmul_factor: 1.0 / 128.0,
            pde_n: 257,
            pde_iters: 5,
            pde_factor: 1.0 / 64.0,
            sor_n: 251,
            sor_t: 10,
            sor_tile: 18,
            sor_factor: 1.0 / 64.0,
            nbody_n: 2_000,
            nbody_iters: 2,
            nbody_factor: 1.0 / 32.0,
            serve_requests: 100_000,
        }
    }

    /// The machine scale factor `kernel`'s experiments run at.
    pub fn factor(&self, kernel: Kernel) -> f64 {
        match kernel {
            Kernel::MatMul => self.matmul_factor,
            Kernel::Pde => self.pde_factor,
            Kernel::Sor => self.sor_factor,
            Kernel::NBody => self.nbody_factor,
        }
    }
}

impl Default for ExpScale {
    fn default() -> Self {
        ExpScale::default_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_preserves_matmul_ratio() {
        let full = ExpScale::full();
        let scaled = ExpScale::default_scaled();
        let ratio = |n: usize, factor: f64| {
            let data = 3.0 * (n * n * 8) as f64;
            data / ((2 << 20) as f64 * factor)
        };
        let r_full = ratio(full.matmul_n, full.matmul_factor);
        let r_scaled = ratio(scaled.matmul_n, scaled.matmul_factor);
        assert!(
            (r_full - r_scaled).abs() / r_full < 0.05,
            "{r_full} vs {r_scaled}"
        );
    }

    #[test]
    fn scaled_preserves_sor_ratio() {
        let full = ExpScale::full();
        let scaled = ExpScale::default_scaled();
        let ratio = |n: usize, factor: f64| (n * n * 8) as f64 / ((2 << 20) as f64 * factor);
        let r_full = ratio(full.sor_n, full.sor_factor);
        let r_scaled = ratio(scaled.sor_n, scaled.sor_factor);
        assert!(
            (r_full - r_scaled).abs() / r_full < 0.05,
            "{r_full} vs {r_scaled}"
        );
    }
}
