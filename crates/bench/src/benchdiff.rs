//! `benchdiff`: field-by-field comparison of two benchmark JSON
//! reports for CI regression gating. CI gates every artifact `repro`
//! and `schedlint` write against its committed copy in `baselines/`:
//! `BENCH_steal.json`, `BENCH_binpolicy.json`, `BENCH_topology.json`,
//! `BENCH_serve.json` (against `BENCH_serve_smoke.json`),
//! `ANALYZE_smoke.json` and `ANALYZE_hb.json`.
//!
//! Both files are flattened to `path → number` maps (array rows are
//! labeled by their identifying field — `workload`, `policy`+`workers`,
//! `worker` — so reordering rows never produces a spurious diff), then
//! compared pairwise under a configurable relative threshold.
//!
//! Not every metric can gate CI. Absolute wall times and throughputs
//! (`*_ns`, `*per_sec`) depend on the host machine, and the probe
//! layer's `run_profile` counters track runtime behaviour; those
//! compare *informationally* —
//! shown when they move, never failing the run. What gates is what a
//! checked-in baseline from another machine can promise: `speedup*`
//! ratios (higher is better) and deterministic counts like `accesses`
//! (must match within threshold in either direction).

use probe::json::Json;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Flattening: JSON tree → ordered (path, value) pairs.
// ---------------------------------------------------------------------

/// The stable label of one array row: its identifying field if it has
/// one, else its index.
fn row_label(row: &Json, index: usize) -> String {
    if let Some(Json::Str(w)) = row.get("workload") {
        return w.clone();
    }
    if let Some(Json::Str(p)) = row.get("policy") {
        return match row.get("workers") {
            Some(Json::Num(n)) => format!("{p}.w{n}"),
            _ => p.clone(),
        };
    }
    if let Some(Json::Num(w)) = row.get("worker") {
        return format!("w{w}");
    }
    index.to_string()
}

/// Flattens numeric leaves to `path → value`, in document order.
///
/// Arrays of objects recurse with row labels
/// (`rows[matmul.r8000.flat].l2_misses`);
/// arrays of anything else (histogram bucket pairs, bare number lists)
/// are skipped — their comparable summaries (`count`, `p50`, …) are
/// already scalar fields next to them. Strings and booleans are
/// identity, not measurement, and are skipped too.
pub fn flatten(value: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(value, String::new(), &mut out);
    out
}

fn walk(value: &Json, path: String, out: &mut Vec<(String, f64)>) {
    match value {
        Json::Num(v) => out.push((path, *v)),
        Json::Obj(fields) => {
            for (key, field) in fields {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(field, sub, out);
            }
        }
        Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Obj(_))) => {
            for (index, item) in items.iter().enumerate() {
                walk(item, format!("{path}[{}]", row_label(item, index)), out);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

/// How a metric's movement is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Higher is better; regression = drop beyond threshold.
    Higher,
    /// Expected stable; regression = movement beyond threshold either
    /// way.
    Stable,
    /// Machine- or run-dependent; never a regression.
    Info,
}

/// Deterministic per-leaf names a cross-machine baseline can promise:
/// trace-derived counts that must reproduce exactly.
const STABLE_LEAVES: &[&str] = &[
    "accesses",
    "reps",
    "bins",
    "threads",
    "workers",
    "threads_run",
    // Trace-driven simulation results are bit-deterministic: the same
    // program order produces the same miss counts on any host.
    "l1_misses",
    "l2_misses",
    "l1_miss_rate_pct",
    "l2_miss_rate_pct",
    // The serving simulation runs entirely on a virtual clock: every
    // metric below — including the `_ns` latencies, which would
    // otherwise classify as machine-dependent — is modeled, and must
    // reproduce bit-exactly on any host.
    "offered",
    "admitted",
    "rejected",
    "shed",
    "completed",
    "warm_hits",
    "cold_misses",
    "warm_hit_rate_pct",
    "drains",
    "max_queue_depth",
    "mean_queue_depth_x1000",
    "p50_latency_ns",
    "p99_latency_ns",
    "mean_latency_ns",
    "mean_slowdown_x1000",
    "makespan_ns",
    // The steal ablation replays its schedule in virtual time.
    "makespan_units",
    // Bounded-memory serving: eviction counts, the peak live bin-record
    // bound, and shed memory-time are all virtual-clock-derived.
    "evictions",
    "peak_live_bin_records",
    "wasted_memory_time",
    // Happens-before certificates (schedlint): unit, obligation, and
    // race counts are replay-derived from seeded captures and must
    // reproduce bit-exactly — any drift means the verdicts or a
    // policy's schedule changed.
    "hb_units",
    "hb_obligations",
    "hb_races",
    "hb_conflict_pairs",
    "hb_violations",
    "hb_unordered",
    "hb_steal_safe",
];

/// Classifies a flattened path.
pub fn classify(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf.starts_with("speedup") || leaf.ends_with("speedup") {
        return Direction::Higher;
    }
    if path.contains("run_profile") {
        // Probe counters track runtime nondeterminism (steal
        // interleavings, wall times).
        return Direction::Info;
    }
    if STABLE_LEAVES.contains(&leaf) {
        return Direction::Stable;
    }
    // What is left is host-dependent (wall times `*_ns`, throughputs
    // `*per_sec`) or a detail behind a gated summary (steal counts,
    // per-worker totals).
    Direction::Info
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Flattened metric path.
    pub path: String,
    /// Baseline value (`None` = only in current).
    pub baseline: Option<f64>,
    /// Current value (`None` = missing from current).
    pub current: Option<f64>,
    /// Relative change `(current - baseline) / |baseline|` when both
    /// sides exist and the baseline is nonzero.
    pub delta: Option<f64>,
    /// How the metric is judged.
    pub direction: Direction,
    /// Whether this row fails the gate.
    pub regression: bool,
}

/// The full comparison of two reports.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Every compared (or unmatched) metric, in baseline order.
    pub rows: Vec<DiffRow>,
    /// Relative threshold the gate used.
    pub threshold: f64,
}

impl DiffReport {
    /// Rows that fail the gate.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.regression)
    }

    /// Whether the comparison passes.
    pub fn passed(&self) -> bool {
        !self.rows.iter().any(|r| r.regression)
    }

    /// Renders the comparison as a markdown summary: a table of every
    /// gated metric plus any informational metric that moved beyond the
    /// threshold, then a pass/fail verdict line.
    pub fn to_markdown(&self) -> String {
        let mut md = String::from("| metric | baseline | current | Δ | status |\n");
        md.push_str("|---|---:|---:|---:|---|\n");
        let mut info_total = 0usize;
        let mut shown = 0usize;
        for row in &self.rows {
            let moved = row.delta.is_some_and(|d| d.abs() > self.threshold);
            if row.direction == Direction::Info {
                info_total += 1;
                if !moved {
                    continue;
                }
            }
            shown += 1;
            let fmt = |v: Option<f64>| match v {
                Some(v) if v == v.trunc() && v.abs() < 1e15 => format!("{v}"),
                Some(v) => format!("{v:.3}"),
                None => "—".to_owned(),
            };
            let delta = match row.delta {
                Some(d) => format!("{:+.1}%", d * 100.0),
                None => "—".to_owned(),
            };
            let status = if row.regression {
                "**REGRESSION**"
            } else if row.direction == Direction::Info {
                "info"
            } else {
                "ok"
            };
            let _ = writeln!(
                md,
                "| `{}` | {} | {} | {} | {} |",
                row.path,
                fmt(row.baseline),
                fmt(row.current),
                delta,
                status
            );
        }
        if shown == 0 {
            md.push_str("| _no gated metrics_ | | | | |\n");
        }
        let gated = self.rows.len() - info_total;
        let _ = writeln!(
            md,
            "\n{} — {gated} gated metric(s) at ±{:.0}% threshold, {info_total} informational.",
            if self.passed() {
                "**PASS**"
            } else {
                "**FAIL**"
            },
            self.threshold * 100.0
        );
        md
    }
}

/// Compares two benchmark JSON documents.
///
/// Every baseline metric is matched by path. A gated metric missing
/// from `current` is a regression (schema drift must not silently
/// disable the gate); metrics only in `current` are informational.
pub fn diff(baseline: &str, current: &str, threshold: f64) -> Result<DiffReport, String> {
    let base = flatten(&Json::parse(baseline).map_err(|e| format!("baseline: {e}"))?);
    let cur = flatten(&Json::parse(current).map_err(|e| format!("current: {e}"))?);
    let mut rows = Vec::new();
    for (path, base_value) in &base {
        let direction = classify(path);
        let current_value = cur.iter().find(|(p, _)| p == path).map(|&(_, v)| v);
        let delta = current_value
            .and_then(|c| (*base_value != 0.0).then(|| (c - base_value) / base_value.abs()));
        let regression = match (direction, current_value, delta) {
            (Direction::Info, _, _) => false,
            (_, None, _) => true,
            (Direction::Higher, _, Some(d)) => d < -threshold,
            (Direction::Stable, _, Some(d)) => d.abs() > threshold,
            // Zero baseline: any nonzero current on a stable metric is
            // movement; directional metrics can't compute a ratio and
            // pass.
            (Direction::Stable, Some(c), None) => c != *base_value,
            (_, Some(_), None) => false,
        };
        rows.push(DiffRow {
            path: path.clone(),
            baseline: Some(*base_value),
            current: current_value,
            delta,
            direction,
            regression,
        });
    }
    for (path, value) in &cur {
        if !base.iter().any(|(p, _)| p == path) {
            rows.push(DiffRow {
                path: path.clone(),
                baseline: None,
                current: Some(*value),
                delta: None,
                direction: Direction::Info,
                regression: false,
            });
        }
    }
    Ok(DiffReport { rows, threshold })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shaped like `BENCH_binpolicy.json`: rows labelled by `workload`.
    fn binpolicy_json(l2_misses: u64) -> String {
        format!(
            "{{\"experiment\":\"binpolicy\",\"rows\":[\
             {{\"workload\":\"matmul.r8000.flat\",\"kernel\":\"matmul\",\"machine\":\"r8000\",\
             \"policy\":\"flat\",\"depth\":1,\"blocks\":[8192],\"threads\":9216,\
             \"accesses\":1852356,\"l1_misses\":104124,\"l2_misses\":{l2_misses},\
             \"modeled_ns\":104825440}}],\
             \"deltas\":[{{\"workload\":\"matmul.r8000.hierarchical\",\
             \"l2_miss_delta_pct\":141.6}}]}}"
        )
    }

    /// Shaped like `BENCH_steal.json`: rows labelled `policy.wN`, each
    /// a replay report with per-worker rows.
    fn steal_json(speedup_vs_none: f64) -> String {
        format!(
            "{{\"experiment\":\"steal_ablation\",\"workload\":\"windowed-sum\",\
             \"bins\":48,\"threads\":384,\"rows\":[\
             {{\"policy\":\"locality-aware\",\"workers\":4,\"threads_run\":384,\
             \"steals_attempted\":5,\"makespan_units\":56448,\
             \"per_worker\":[{{\"worker\":0,\"units\":56448}}],\
             \"speedup_vs_none\":{speedup_vs_none:.3}}}]}}"
        )
    }

    /// A host-timed report: a wall time, a throughput and a speedup.
    fn timed_json(wall_ns: u64, speedup: f64) -> String {
        format!(
            "{{\"rows\":[{{\"workload\":\"w\",\"wall_ns\":{wall_ns},\
             \"threads_per_sec\":{:.1},\"speedup\":{speedup:.3}}}]}}",
            384.0 / (wall_ns as f64 / 1e9),
        )
    }

    #[test]
    fn parser_round_trips_report_shapes() {
        for (doc, experiment) in [
            (binpolicy_json(24352), "binpolicy"),
            (steal_json(2.5), "steal_ablation"),
        ] {
            let doc = Json::parse(&doc).expect("valid JSON");
            match doc.get("rows").expect("rows") {
                Json::Arr(items) => assert_eq!(items.len(), 1),
                other => panic!("rows not an array: {other:?}"),
            }
            assert_eq!(
                doc.get("experiment"),
                Some(&Json::Str(experiment.to_owned()))
            );
        }
    }

    #[test]
    fn flatten_labels_rows_by_identity() {
        let mut paths = Vec::new();
        for doc in [binpolicy_json(24352), steal_json(2.5)] {
            let doc = Json::parse(&doc).expect("valid JSON");
            paths.extend(flatten(&doc).into_iter().map(|(path, _)| path));
        }
        for expected in [
            "rows[matmul.r8000.flat].l2_misses",
            "deltas[matmul.r8000.hierarchical].l2_miss_delta_pct",
            "rows[locality-aware.w4].speedup_vs_none",
            "rows[locality-aware.w4].makespan_units",
            "rows[locality-aware.w4].per_worker[w0].units",
        ] {
            assert!(paths.iter().any(|p| p == expected), "{expected}: {paths:?}");
        }
        assert!(!paths.iter().any(|p| p.contains("[0]")), "{paths:?}");
        // Number arrays (`blocks`) are skipped, not flattened.
        assert!(!paths.iter().any(|p| p.contains("blocks")), "{paths:?}");
    }

    #[test]
    fn identical_reports_pass() {
        for a in [binpolicy_json(24352), steal_json(2.5)] {
            let report = diff(&a, &a, 0.15).expect("diff");
            assert!(report.passed(), "{}", report.to_markdown());
            assert!(report.to_markdown().contains("**PASS**"));
        }
    }

    #[test]
    fn small_throughput_drop_is_accepted() {
        // 5% lower stealing speedup: under the 15% gate.
        let report = diff(&steal_json(2.5), &steal_json(2.375), 0.15).expect("diff");
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn machine_dependent_metrics_do_not_gate_by_default() {
        // A 25% wall-clock swing with a 25% lower speedup: the wall
        // time and threads/sec are informational (another machine is
        // simply slower), but the speedup *ratio* gates — and it moved
        // beyond 15%, so the diff fails on exactly that.
        let report = diff(
            &timed_json(80_000_000, 2.5),
            &timed_json(100_000_000, 1.875),
            0.15,
        )
        .expect("diff");
        let failing: Vec<&str> = report.regressions().map(|r| r.path.as_str()).collect();
        assert_eq!(failing, vec!["rows[w].speedup"], "{failing:?}");
    }

    #[test]
    fn row_label_is_row_identity() {
        // A certificate row under a new label never silently compares
        // against the old one: the labels differ, so every gated leaf of
        // the old row reports as missing.
        let base = include_str!("../../../baselines/ANALYZE_hb.json");
        let other = base.replace("\"pde/paper\"", "\"pde/paper-renamed\"");
        let report = diff(base, &other, 0.15).expect("diff");
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|r| r.path == "rows[pde/paper].hb_units" && r.current.is_none()));
    }

    #[test]
    fn stable_counts_gate_both_directions() {
        let base = binpolicy_json(24352);
        for moved in [20000, 29000] {
            let report = diff(&base, &binpolicy_json(moved), 0.15).expect("diff");
            let failing: Vec<&str> = report.regressions().map(|r| r.path.as_str()).collect();
            assert_eq!(
                failing,
                vec!["rows[matmul.r8000.flat].l2_misses"],
                "{moved}"
            );
        }
    }

    #[test]
    fn missing_gated_metric_is_a_regression() {
        let base = binpolicy_json(24352);
        let renamed = base.replace("\"l2_misses\"", "\"l2_missesX\"");
        let report = diff(&base, &renamed, 0.15).expect("diff");
        assert!(!report.passed());
        let row = report
            .rows
            .iter()
            .find(|r| r.path == "rows[matmul.r8000.flat].l2_misses")
            .expect("baseline row kept");
        assert!(row.current.is_none() && row.regression);
    }

    #[test]
    fn run_profile_never_gates() {
        // Even a leaf the stable set names (`bins`) is informational
        // inside a probe profile.
        let profiled = |bins: u64| {
            binpolicy_json(24352).replacen(
                "\"modeled_ns\"",
                &format!("\"run_profile\":{{\"sched\":{{\"bins\":{bins}}}}},\"modeled_ns\""),
                1,
            )
        };
        let report = diff(&profiled(3), &profiled(30), 0.15).expect("diff");
        assert!(report.passed(), "{}", report.to_markdown());
        // ... but the movement is surfaced in the table.
        let md = report.to_markdown();
        assert!(
            md.contains("rows[matmul.r8000.flat].run_profile.sched.bins"),
            "{md}"
        );
    }

    /// Every committed baseline passes against itself, with exactly as
    /// many gated leaves as it had before the gate lost its
    /// throughput-promoting policy (counted then under the default
    /// policy): dropping the parameter disarmed no gate. A new baseline
    /// must be pinned here too.
    #[test]
    fn every_baseline_passes_against_itself_with_its_gates_armed() {
        // ANALYZE_hb: 20 kernel × policy rows × 6 `hb_*` leaves
        // (units, obligations, conflict pairs, violations, unordered,
        // steal-safe). ANALYZE_smoke: 4 kernel rows × 5 leaves
        // (threads, bins, hb_units, hb_obligations, hb_races).
        const GATED: &[(&str, usize)] = &[
            ("ANALYZE_hb.json", 120),
            ("ANALYZE_smoke.json", 20),
            ("BENCH_binpolicy.json", 96),
            ("BENCH_serve_smoke.json", 110),
            ("BENCH_steal.json", 50),
            ("BENCH_topology.json", 144),
        ];
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("baselines/ exists")
            .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
            .collect();
        names.sort();
        let pinned: Vec<&str> = GATED.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, pinned, "every baseline is pinned");
        for &(name, gated) in GATED {
            let doc = std::fs::read_to_string(dir.join(name)).expect("readable baseline");
            let report = diff(&doc, &doc, 0.15).expect("diff");
            assert!(report.passed(), "{name}: {}", report.to_markdown());
            let armed = report
                .rows
                .iter()
                .filter(|r| r.direction != Direction::Info)
                .count();
            assert_eq!(armed, gated, "{name}");
        }
    }
}
