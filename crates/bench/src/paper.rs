//! The paper's published numbers, used as reference columns in the
//! harness output and as shape anchors in EXPERIMENTS.md.
//!
//! Everything here is transcribed from Philbin et al., ASPLOS 1996,
//! §4 (Tables 1–9). Times are CPU seconds; reference/miss counts are in
//! thousands, as printed.

/// Table 1: thread overhead in microseconds.
pub mod table1 {
    /// (R8000, R10000) fork overhead, µs.
    pub const FORK_US: (f64, f64) = (1.38, 0.95);
    /// (R8000, R10000) run overhead, µs.
    pub const RUN_US: (f64, f64) = (0.22, 0.14);
    /// (R8000, R10000) total overhead, µs.
    pub const TOTAL_US: (f64, f64) = (1.60, 1.09);
    /// (R8000, R10000) L2 miss cost, µs.
    pub const L2_MISS_US: (f64, f64) = (1.06, 0.85);
    /// Threads used by the micro-benchmark.
    pub const THREADS: u64 = 1_048_576;
}

/// Table 2: matrix multiply, seconds (n = 1024).
pub mod table2 {
    /// Rows: (version, R8000 s, R10000 s).
    pub const ROWS: [(&str, f64, f64); 5] = [
        ("interchanged", 102.98, 36.63),
        ("transposed", 95.06, 32.96),
        ("tiled-interchanged", 16.61, 12.24),
        ("tiled-transposed", 19.73, 18.71),
        ("threaded", 20.32, 16.85),
    ];
}

/// Table 3: matmul references and misses on the R8000, in thousands.
pub mod table3 {
    /// The three versions the paper tabulates (untiled, tiled,
    /// threaded), by this harness's version names.
    pub const VERSIONS: [&str; 3] = [
        "matmul/interchanged",
        "matmul/tiled-interchanged",
        "matmul/threaded",
    ];
    /// Rows: (metric, [untiled, tiled, threaded]).
    pub const ROWS: [(&str, &[u64]); 8] = [
        ("I fetches", &[5_388_645, 2_184_458, 3_929_858]),
        ("D references", &[3_222_274, 728_256, 2_193_690]),
        ("L1 misses", &[408_756, 215_652, 414_741]),
        ("L2 misses", &[68_225, 738, 1_872]),
        ("L2 compulsory", &[199, 200, 299]),
        ("L2 capacity", &[68_025, 528, 1_311]),
        ("L2 conflict", &[0, 10, 262]),
        ("threads (count)", &[0, 0, 1_048_576 / 1000]),
    ];
}

/// Table 4: PDE, seconds (n = 2049, 5 iterations + residual).
pub mod table4 {
    /// Rows: (version, R8000 s, R10000 s).
    pub const ROWS: [(&str, f64, f64); 3] = [
        ("regular", 9.48, 7.80),
        ("cache-conscious", 5.21, 5.21),
        ("threaded", 7.24, 4.98),
    ];
}

/// Table 5: PDE cache misses on the R8000, in thousands.
pub mod table5 {
    /// Rows: (metric, [regular, cache-conscious, threaded]).
    pub const ROWS: [(&str, &[u64]); 7] = [
        ("I fetches", &[303_686, 277_622, 283_467]),
        ("D references", &[126_044, 122_598, 126_385]),
        ("L1 misses", &[80_767, 85_040, 94_516]),
        ("L2 misses", &[6_038, 2_888, 3_415]),
        ("L2 compulsory", &[788, 788, 789]),
        ("L2 capacity", &[5_251, 2_100, 2_627]),
        ("L2 conflict", &[0, 0, 0]),
    ];
}

/// Table 6: SOR, seconds (n = 2005, t = 30, tile 18).
pub mod table6 {
    /// Rows: (version, R8000 s, R10000 s).
    pub const ROWS: [(&str, f64, f64); 3] = [
        ("untiled", 30.54, 12.81),
        ("hand-tiled", 26.90, 4.27),
        ("threaded", 23.10, 4.31),
    ];
}

/// Table 7: SOR references and misses on the R8000, in thousands.
pub mod table7 {
    /// Rows: (metric, [untiled, hand-tiled, threaded]).
    pub const ROWS: [(&str, &[u64]); 7] = [
        ("I fetches", &[1_205_767, 1_917_178, 1_212_039]),
        ("D references", &[482_042, 703_522, 483_973]),
        ("L1 misses", &[90_451, 5_259, 90_631]),
        ("L2 misses", &[7_545, 282, 263]),
        ("L2 compulsory", &[251, 268, 258]),
        ("L2 capacity", &[7_294, 0, 6]),
        ("L2 conflict", &[0, 13, 0]),
    ];
}

/// Table 8: N-body, seconds (64,000 bodies, 4 iterations).
pub mod table8 {
    /// Rows: (version, R8000 s, R10000 s).
    pub const ROWS: [(&str, f64, f64); 2] =
        [("unthreaded", 153.81, 53.22), ("threaded", 148.60, 46.34)];
}

/// Table 9: N-body references and misses on the R8000 (one iteration),
/// in thousands.
pub mod table9 {
    /// Rows: (metric, [unthreaded, threaded]).
    pub const ROWS: [(&str, &[u64]); 7] = [
        ("I fetches", &[1_820_656, 1_838_089]),
        ("D references", &[865_713, 872_130]),
        ("L1 misses", &[54_313, 55_035]),
        ("L2 misses", &[1_674, 778]),
        ("L2 compulsory", &[175, 190]),
        ("L2 capacity", &[1_131, 495]),
        ("L2 conflict", &[369, 93]),
    ];
}

/// Figure 4: block-size sweep on the R8000 — the curves are flat while
/// the block dimension sum stays within the 2 MB L2 and degrade
/// sharply beyond it (most visibly for matmul).
pub mod figure4 {
    /// The paper's sweep of block dimension sizes, bytes.
    pub const BLOCK_SIZES: [u64; 8] = [
        64 << 10,
        128 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
        8 << 20,
    ];
}
