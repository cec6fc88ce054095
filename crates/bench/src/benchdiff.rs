//! `benchdiff`: field-by-field comparison of two benchmark JSON
//! reports (`BENCH_sim.json`, `BENCH_steal.json`) for CI regression
//! gating.
//!
//! Both files are flattened to `path → number` maps (array rows are
//! labeled by their identifying field — `workload`, `policy`+`workers`,
//! `worker` — so reordering rows never produces a spurious diff), then
//! compared pairwise under a configurable relative threshold.
//!
//! Not every metric can gate CI. Absolute wall times and throughputs
//! (`*_ns`, `*per_sec`) depend on the host machine, and the probe
//! layer's `run_profile` counters track nondeterministic runtime
//! behaviour (steal interleavings); those compare *informationally* —
//! shown when they move, never failing the run — unless a
//! [`GatePolicy`] promotes them: `--gate-throughput` promotes the
//! `*per_sec` leaves (higher is better) for CI legs where baseline and
//! current run on the same runner class back-to-back. Wall times and
//! runtime counters never gate. What gates by default is what a
//! checked-in baseline from another machine can promise: `speedup*`
//! ratios (higher is better) and deterministic workload counts like
//! `accesses` (must match within threshold in either direction).

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
/// Arrays of objects recurse with row labels (`rows[matmul@s4].fast_ns`);
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
    // The effective shard count is machine-geometry-derived config, not
    // a measurement: it must reproduce exactly.
    "shards",
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
    // Bounded-memory serving: eviction counts, the peak live bin-record
    // bound, and shed memory-time are all virtual-clock-derived.
    "evictions",
    "peak_live_bin_records",
    "wasted_memory_time",
    // Happens-before certificates (schedlint): event, unit, obligation,
    // and race counts are replay-derived from seeded captures and must
    // reproduce bit-exactly — any drift means the HB engine or a
    // policy's schedule changed.
    "hb_events",
    "hb_units",
    "hb_obligations",
    "hb_races",
    "hb_conflict_pairs",
    "hb_violations",
    "hb_unordered",
    "hb_steal_safe",
    "hb_cross_shard_words",
];

/// Which machine-dependent metrics are promoted from
/// [`Direction::Info`] to a gated direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GatePolicy {
    /// The default cross-machine policy: ratios and deterministic
    /// counts only.
    #[default]
    Baseline,
    /// `--gate-throughput`: also gate `*per_sec` throughputs (higher is
    /// better), for CI legs where baseline and current run back-to-back
    /// on the same runner class, so a throughput drop is a code
    /// regression, not machine noise. A throughput *rise* never fails.
    Throughput,
}

/// Classifies a flattened path under a [`GatePolicy`].
pub fn classify(path: &str, policy: GatePolicy) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf.starts_with("speedup") || leaf.ends_with("speedup") {
        return Direction::Higher;
    }
    if path.contains("run_profile") {
        // Probe counters track runtime nondeterminism (steal
        // interleavings, wall times).
        return Direction::Info;
    }
    if leaf == "makespan_ns" && path.contains(".report.") {
        // A `ParRunReport`'s makespan is the max *wall-clock* busy
        // time across workers — machine-dependent, unlike the serving
        // rows' virtual-clock leaf of the same name.
        return Direction::Info;
    }
    if STABLE_LEAVES.contains(&leaf) {
        return Direction::Stable;
    }
    if leaf.contains("per_sec") && policy == GatePolicy::Throughput {
        return Direction::Higher;
    }
    // What is left depends on the host or the run: wall times (`*_ns`),
    // ungated throughputs, steal counts, per-worker executed totals,
    // makespan units.
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
pub fn diff(
    baseline: &str,
    current: &str,
    threshold: f64,
    policy: GatePolicy,
) -> Result<DiffReport, String> {
    let base = flatten(&Json::parse(baseline).map_err(|e| format!("baseline: {e}"))?);
    let cur = flatten(&Json::parse(current).map_err(|e| format!("current: {e}"))?);
    let mut rows = Vec::new();
    for (path, base_value) in &base {
        let direction = classify(path, policy);
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

    fn sim_json(fast_ns: u64) -> String {
        sharded_sim_json(fast_ns, 50000)
    }

    fn sharded_sim_json(fast_ns: u64, sharded_ns: u64) -> String {
        // Shape matches SimBenchResult::to_json.
        format!(
            "{{\"experiment\":\"simbench\",\"reps\":3,\"rows\":[\
             {{\"workload\":\"matmul@s4\",\"accesses\":1000,\"shards\":4,\
             \"slow_ns\":200000,\"fast_ns\":{fast_ns},\"sharded_ns\":{sharded_ns},\
             \"slow_accesses_per_sec\":5000000.0,\
             \"fast_accesses_per_sec\":{:.1},\
             \"sharded_accesses_per_sec\":{:.1},\
             \"speedup\":{:.3},\"sharded_speedup\":{:.3}}}],\
             \"run_profile\":{{\"matmul.l1\":{{\"hits\":900,\"misses\":100}}}}}}",
            1000.0 / (fast_ns as f64 / 1e9),
            1000.0 / (sharded_ns as f64 / 1e9),
            200000.0 / fast_ns as f64,
            200000.0 / sharded_ns as f64,
        )
    }

    #[test]
    fn parser_round_trips_report_shapes() {
        let doc = Json::parse(&sim_json(100000)).expect("valid JSON");
        let rows = doc.get("rows").expect("rows");
        match rows {
            Json::Arr(items) => assert_eq!(items.len(), 1),
            other => panic!("rows not an array: {other:?}"),
        }
        assert_eq!(
            doc.get("experiment"),
            Some(&Json::Str("simbench".to_owned()))
        );
    }

    #[test]
    fn flatten_labels_rows_by_identity() {
        let doc = Json::parse(&sim_json(100000)).expect("valid JSON");
        let flat = flatten(&doc);
        let paths: Vec<&str> = flat.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"rows[matmul@s4].fast_ns"), "{paths:?}");
        assert!(paths.contains(&"run_profile.matmul.l1.hits"), "{paths:?}");
        assert!(!paths.iter().any(|p| p.contains("[0]")), "{paths:?}");
    }

    #[test]
    fn wall_clock_report_makespan_is_informational() {
        // The serving rows' virtual-clock makespan stays gated…
        assert_eq!(
            classify("rows[flat].makespan_ns", GatePolicy::Baseline),
            Direction::Stable
        );
        // …but a ParRunReport's wall-clock makespan never gates.
        assert_eq!(
            classify(
                "rows[locality-aware.w4].report.makespan_ns",
                GatePolicy::Throughput
            ),
            Direction::Info
        );
    }

    #[test]
    fn identical_reports_pass() {
        let a = sim_json(100000);
        let report = diff(&a, &a, 0.15, GatePolicy::Throughput).expect("diff");
        assert!(report.passed(), "{}", report.to_markdown());
        assert!(report.to_markdown().contains("**PASS**"));
    }

    #[test]
    fn small_throughput_drop_is_accepted() {
        // 5% slower fast path: under the 15% gate.
        let report = diff(
            &sim_json(100000),
            &sim_json(105000),
            0.15,
            GatePolicy::Throughput,
        )
        .expect("diff");
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn machine_dependent_metrics_do_not_gate_by_default() {
        // Same 25% wall-time swing, default gating: times and
        // throughputs are informational (another machine is simply
        // faster), but the speedup *ratio* still gates — and it moved
        // beyond 15%, so the diff fails on exactly that.
        let report = diff(
            &sim_json(100000),
            &sim_json(125000),
            0.15,
            GatePolicy::Baseline,
        )
        .expect("diff");
        let failing: Vec<&str> = report.regressions().map(|r| r.path.as_str()).collect();
        assert_eq!(failing, vec!["rows[matmul@s4].speedup"], "{failing:?}");
    }

    #[test]
    fn throughput_gate_promotes_per_sec_drops_only() {
        // 25% slower sharded replay. Under the default policy only the
        // sharded_speedup ratio gates; --gate-throughput additionally
        // fails the raw accesses/sec drop, while wall times stay
        // informational.
        let base = sharded_sim_json(100000, 40000);
        let slower = sharded_sim_json(100000, 50000);
        let default_fail: Vec<String> = diff(&base, &slower, 0.15, GatePolicy::Baseline)
            .expect("diff")
            .regressions()
            .map(|r| r.path.clone())
            .collect();
        assert_eq!(default_fail, vec!["rows[matmul@s4].sharded_speedup"]);
        let gated = diff(&base, &slower, 0.15, GatePolicy::Throughput).expect("diff");
        let failing: Vec<&str> = gated.regressions().map(|r| r.path.as_str()).collect();
        assert!(
            failing.contains(&"rows[matmul@s4].sharded_accesses_per_sec"),
            "{failing:?}"
        );
        assert!(
            !failing.iter().any(|p| p.ends_with("_ns")),
            "wall times must not gate under --gate-throughput: {failing:?}"
        );
        let md = gated.to_markdown();
        assert!(md.contains("**FAIL**"), "{md}");
        assert!(md.contains("**REGRESSION**"), "{md}");
    }

    #[test]
    fn throughput_gate_is_one_sided() {
        // A throughput *rise* is an improvement, not a regression.
        let report = diff(
            &sharded_sim_json(100000, 50000),
            &sharded_sim_json(100000, 30000),
            0.15,
            GatePolicy::Throughput,
        )
        .expect("diff");
        assert!(report.passed(), "{}", report.to_markdown());
    }

    #[test]
    fn shard_count_in_identity_splits_rows() {
        // A baseline recorded at 4 shards never silently compares
        // against an 8-shard run: the row labels differ, so every
        // gated 4-shard metric reports as missing.
        let base = sharded_sim_json(100000, 50000);
        let other = base.replace("@s4", "@s8");
        let report = diff(&base, &other, 0.15, GatePolicy::Baseline).expect("diff");
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|r| r.path == "rows[matmul@s4].speedup" && r.current.is_none()));
    }

    #[test]
    fn stable_counts_gate_both_directions() {
        let base = sim_json(100000);
        let grown = base.replace("\"accesses\":1000", "\"accesses\":2000");
        let report = diff(&base, &grown, 0.15, GatePolicy::Baseline).expect("diff");
        let failing: Vec<&str> = report.regressions().map(|r| r.path.as_str()).collect();
        assert!(failing.contains(&"rows[matmul@s4].accesses"), "{failing:?}");
    }

    #[test]
    fn missing_gated_metric_is_a_regression() {
        let base = sim_json(100000);
        let renamed = base.replace("\"speedup\"", "\"speedupX\"");
        let report = diff(&base, &renamed, 0.15, GatePolicy::Baseline).expect("diff");
        assert!(!report.passed());
        let row = report
            .rows
            .iter()
            .find(|r| r.path == "rows[matmul@s4].speedup")
            .expect("baseline row kept");
        assert!(row.current.is_none() && row.regression);
    }

    #[test]
    fn run_profile_never_gates() {
        let base = sim_json(100000);
        let drifted = base.replace("\"hits\":900", "\"hits\":1");
        let report = diff(&base, &drifted, 0.15, GatePolicy::Throughput).expect("diff");
        assert!(report.passed(), "{}", report.to_markdown());
        // ... but the movement is surfaced in the table.
        assert!(
            report.to_markdown().contains("run_profile.matmul.l1.hits"),
            "{}",
            report.to_markdown()
        );
    }
}
