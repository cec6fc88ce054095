//! Rendering of experiment results next to the paper's numbers.

use crate::experiments::{
    Figure4Result, MissRow, PolicyAblationResult, StealAblationResult, Table1Result, TimeRow,
};
use crate::fmt::{ratio, secs, thousands, TextTable};
use crate::paper;
use crate::servebench::ServeBenchResult;
use cachesim::SimReport;
use locality_sched::StealPolicy;

/// Prints Table 1: measured host overhead vs the paper's per-machine
/// values.
pub fn table1(result: &Table1Result) {
    println!("Table 1: thread overhead (this host, Rust implementation) vs paper (microseconds)\n");
    let mut t = TextTable::new(vec!["", "host (us)", "paper R8000", "paper R10000"]);
    let host = |ns: f64| format!("{:.3}", ns / 1000.0);
    for (label, host_us, paper_us) in [
        ("Fork", host(result.fork_ns), paper::table1::FORK_US),
        ("Run", host(result.run_ns), paper::table1::RUN_US),
        ("Total", host(result.total_ns()), paper::table1::TOTAL_US),
        (
            "L2 miss (modeled)",
            "-".to_owned(),
            paper::table1::L2_MISS_US,
        ),
    ] {
        t.row(vec![
            label.to_owned(),
            host_us,
            format!("{:.2}", paper_us.0),
            format!("{:.2}", paper_us.1),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\n({} null threads, uniformly distributed hints, best of 3)",
        result.threads
    );
}

/// Prints a timing table (Tables 2/4/6/8): modeled seconds per machine
/// with speedup-vs-baseline ratios, next to the paper's seconds.
pub fn time_table(title: &str, rows: &[TimeRow], paper_rows: &[(&str, f64, f64)], note: &str) {
    println!("{title}\n");
    let mut t = TextTable::new(vec![
        "version",
        "R8000 model (s)",
        "vs base",
        "paper (s)",
        "paper vs base",
        "R10000 model (s)",
        "vs base",
        "paper (s)",
        "paper vs base",
    ]);
    let base8 = rows.first().map_or(1.0, |r| r.r8000.total());
    let base10 = rows.first().map_or(1.0, |r| r.r10000.total());
    let pbase8 = paper_rows.first().map_or(1.0, |r| r.1);
    let pbase10 = paper_rows.first().map_or(1.0, |r| r.2);
    for (i, row) in rows.iter().enumerate() {
        let paper_row = paper_rows.get(i);
        t.row(vec![
            row.version.to_owned(),
            secs(row.r8000.total()),
            ratio(base8 / row.r8000.total()),
            paper_row.map(|p| secs(p.1)).unwrap_or_default(),
            paper_row.map(|p| ratio(pbase8 / p.1)).unwrap_or_default(),
            secs(row.r10000.total()),
            ratio(base10 / row.r10000.total()),
            paper_row.map(|p| secs(p.2)).unwrap_or_default(),
            paper_row.map(|p| ratio(pbase10 / p.2)).unwrap_or_default(),
        ]);
    }
    print!("{}", t.render());
    if !note.is_empty() {
        println!("\n{note}");
    }
}

/// Prints a simulation table (Tables 3/5/7/9) in the paper's row
/// layout, one column pair (ours, paper) per version. `paper_rows` are
/// the paper's counts in thousands, `(metric, [per version])`, in the
/// order I, D, L1, L2, compulsory, capacity, conflict.
pub fn miss_table(title: &str, rows: &[MissRow], paper_rows: &[(&str, &[u64])]) {
    println!("{title}\n");
    let mut header = vec!["metric".to_owned()];
    for row in rows {
        let short = row.version.split('/').nth(1).unwrap_or(row.version);
        header.push(format!("{short} (ours)"));
        header.push(format!("{short} (paper)"));
    }
    let mut t = TextTable::new(header);
    // (label, index of the paper's row for it, our value)
    type Metric = (&'static str, Option<usize>, fn(&SimReport) -> String);
    let metrics: [Metric; 9] = [
        ("I fetches", Some(0), |r| thousands(r.instructions)),
        ("D references", Some(1), |r| thousands(r.data_references())),
        ("L1 misses", Some(2), |r| thousands(r.l1.misses())),
        ("  rate %", None, |r| {
            format!("{:.1}", r.l1_miss_rate_percent())
        }),
        ("L2 misses", Some(3), |r| thousands(r.l2.misses())),
        ("  rate %", None, |r| {
            format!("{:.1}", r.l2_miss_rate_percent())
        }),
        ("L2 compulsory", Some(4), |r| {
            thousands(r.classes.compulsory)
        }),
        ("L2 capacity", Some(5), |r| thousands(r.classes.capacity)),
        ("L2 conflict", Some(6), |r| thousands(r.classes.conflict)),
    ];
    for (name, paper_row, ours) in metrics {
        let mut cells = vec![name.to_owned()];
        for (version, row) in rows.iter().enumerate() {
            cells.push(ours(&row.report));
            cells.push(
                paper_row
                    .and_then(|index| paper_rows.get(index)?.1.get(version))
                    .map(|v| format!("{v}k"))
                    .unwrap_or_default(),
            );
        }
        t.row(cells);
    }
    print!("{}", t.render());
}

/// Prints the steal-policy ablation: per (workers, policy) the
/// critical path in deterministic work units, its modeled time,
/// speedups over `StealPolicy::None`, and aggregate steal counters.
pub fn steal(result: &StealAblationResult) {
    println!(
        "Steal-policy ablation: windowed-sum, {} bins, {} threads, triangular per-thread cost (best of 3 by critical path)\n",
        result.bins, result.threads
    );
    let mut t = TextTable::new(vec![
        "workers",
        "policy",
        "crit path (units)",
        "modeled (ms)",
        "wall (ms)",
        "Kthreads/s",
        "vs none",
        "steals succ/att",
        "parked (us)",
    ]);
    for &workers in &result.worker_counts {
        for policy in [
            StealPolicy::None,
            StealPolicy::Random,
            StealPolicy::LocalityAware,
        ] {
            let Some(row) = result.row(policy, workers) else {
                continue;
            };
            let parked_us: u64 = row
                .report
                .stats
                .workers()
                .iter()
                .map(|w| w.parked_ns)
                .sum::<u64>()
                / 1000;
            t.row(vec![
                workers.to_string(),
                policy.to_string(),
                row.makespan_units.to_string(),
                format!("{:.3}", row.modeled_ns as f64 / 1e6),
                format!("{:.3}", row.wall_ns as f64 / 1e6),
                format!("{:.1}", row.threads_per_sec / 1e3),
                ratio(result.speedup_vs_none(policy, workers)),
                format!(
                    "{}/{}",
                    row.report.stats.steals_succeeded(),
                    row.report.stats.steals_attempted()
                ),
                parked_us.to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "\nCritical path = max per-worker sum of known per-bin costs (work\nunits), i.e. the makespan under ideal parallel execution; modeled\ntime converts it at the single-worker calibration rate. Wall-clock\nadditionally depends on how many physical cores the host has. The\nstatic partition balances thread *counts*, not thread *cost*; stealing\nabsorbs the resulting tail, and locality-aware victim selection does\nso while keeping each worker's tour segment contiguous."
    );
}

/// Prints a policy ablation: per (kernel, machine, policy) the
/// simulated misses and block ladder, then each deeper policy's deltas
/// against flat.
pub fn policy_ablation(result: &PolicyAblationResult) {
    println!("{}", result.spec.intro);
    let mut t = TextTable::new(vec![
        "workload",
        "machine",
        "policy",
        "ladder",
        "threads",
        "L1 misses",
        "L2 misses",
        "L1 rate",
        "L2 rate",
        "modeled (ms)",
    ]);
    // Whole KiB, except the sub-KiB rungs of the deeper ladders: bytes.
    let block = |b: u64| {
        if b < 1 << 10 {
            format!("{b}")
        } else {
            format!("{}K", b >> 10)
        }
    };
    for row in &result.rows {
        let ladder = row
            .blocks
            .iter()
            .map(|&b| block(b))
            .collect::<Vec<_>>()
            .join(" in ");
        t.row(vec![
            row.kernel.to_owned(),
            row.machine.to_owned(),
            row.policy.name().to_owned(),
            ladder,
            thousands(row.report.threads),
            thousands(row.report.l1.misses()),
            thousands(row.report.l2.misses()),
            format!("{:.1}%", row.report.l1_miss_rate_percent()),
            format!("{:.1}%", row.report.l2_miss_rate_percent()),
            format!("{:.3}", row.modeled_ns as f64 / 1e6),
        ]);
    }
    print!("{}", t.render());
    println!();
    let mut d = TextTable::new(vec![
        "workload",
        "machine",
        "policy",
        "L1 miss Δ",
        "L2 miss Δ",
        "modeled Δ",
    ]);
    for (row, deltas) in result.deltas() {
        let mut cells = vec![
            row.kernel.to_owned(),
            row.machine.to_owned(),
            row.policy.name().to_owned(),
        ];
        cells.extend(deltas.iter().map(|delta| format!("{delta:+.1}%")));
        d.row(cells);
    }
    print!("{}", d.render());
    println!("{}", result.spec.footnote);
}

/// Prints the online serving experiment: per-policy hit rates, queue
/// behaviour, and modeled latency percentiles over one shared trace.
pub fn servebench(result: &ServeBenchResult) {
    println!(
        "Online serving: {} Zipf-skewed bursty requests streamed through the\ncontinuously-draining engine on the {} ({} lanes, queue bound {},\nadmission shed-oldest, eviction {})\n",
        thousands(result.trace.requests),
        result.machine,
        result.lanes,
        result.queue_bound,
        result.eviction,
    );
    let mut t = TextTable::new(vec![
        "policy",
        "admitted",
        "rejected",
        "shed",
        "warm-hit",
        "p50 (us)",
        "p99 (us)",
        "slowdown",
        "max depth",
        "peak bins",
        "evicted",
        "makespan (ms)",
    ]);
    for row in &result.rows {
        let report = &row.outcome.report;
        t.row(vec![
            row.policy.to_owned(),
            thousands(report.admitted),
            thousands(report.rejected),
            thousands(report.shed),
            format!("{:.1}%", report.warm_hit_rate_pct()),
            format!("{:.1}", report.p50_latency_ns as f64 / 1e3),
            format!("{:.1}", report.p99_latency_ns as f64 / 1e3),
            format!("{:.2}x", report.mean_slowdown_x1000 as f64 / 1e3),
            thousands(report.max_queue_depth),
            thousands(report.peak_live_bin_records),
            thousands(report.evictions),
            format!("{:.2}", report.makespan_ns as f64 / 1e6),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nwarm-hit = requests whose payload was mostly L2-resident; locality\npolicies should beat single_bin (FIFO) by batching requests per hot object.\npeak bins = most live bin records the table ever held (the memory the\neviction policy bounds); shed = queued requests cancelled for arrivals."
    );
}

/// Prints the Figure 4 sweep as a text table plus an ASCII plot.
pub fn figure4(result: &Figure4Result) {
    println!("Figure 4: execution time vs block dimension size (scaled R8000 model)\n");
    let mut header = vec!["block (full-equiv)".to_owned()];
    for (name, _) in &result.series {
        header.push(name.clone());
    }
    let mut t = TextTable::new(header);
    for (i, &block) in result.block_sizes.iter().enumerate() {
        let label = if block >= 1 << 20 {
            format!("{}M", block >> 20)
        } else {
            format!("{}K", block >> 10)
        };
        let mut cells = vec![label];
        for (_, times) in &result.series {
            cells.push(secs(times[i]));
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!();
    // ASCII sparkline per series, normalized to its own max.
    for (name, times) in &result.series {
        let max = times.iter().copied().fold(f64::MIN, f64::max);
        let min = times.iter().copied().fold(f64::MAX, f64::min);
        let glyphs: String = times
            .iter()
            .map(|&v| {
                let levels = [' ', '.', ':', '-', '=', '+', '*', '#'];
                let t = if max > min {
                    (v - min) / (max - min)
                } else {
                    0.0
                };
                levels[(t * 7.0).round() as usize]
            })
            .collect();
        println!("{name:>8}  [{glyphs}]  (min {min:.2}s, max {max:.2}s)");
    }
    println!("\n(The paper's curves are flat while block dimensions sum within the L2\nand degrade beyond it; matmul degrades most sharply.)");
}
