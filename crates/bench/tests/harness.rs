//! Tests of the reproduction harness itself: the paper constants are
//! internally consistent, the runner simulates each key once, the
//! smoke-scale experiments have the paper's shape, and the registry and
//! the command line over it agree.

use proptest::prelude::*;
use repro::experiments::{self, Binning, CellKey, Machine, Runner};
use repro::registry::{Experiment, Run, REGISTRY};
use repro::{cli, paper, ExpScale};
use workloads::Kernel;

#[test]
fn paper_constants_are_internally_consistent() {
    // Table 1: total = fork + run, per machine.
    assert!(
        (paper::table1::TOTAL_US.0 - paper::table1::FORK_US.0 - paper::table1::RUN_US.0).abs()
            < 1e-9
    );
    assert!(
        (paper::table1::TOTAL_US.1 - paper::table1::FORK_US.1 - paper::table1::RUN_US.1).abs()
            < 1e-9
    );
    // Thread overhead beats an L2 miss by less than 2x (the paper's
    // economics: one saved miss pays for most of a thread).
    assert!(paper::table1::TOTAL_US.0 < 2.0 * paper::table1::L2_MISS_US.0);

    // Miss tables: compulsory + capacity + conflict == misses.
    let check = |rows: &[(&str, &[u64])]| {
        let get =
            |name: &str, col: usize| rows.iter().find(|r| r.0 == name).expect("row exists").1[col];
        for col in 0..rows[0].1.len() {
            let total = get("L2 misses", col);
            let parts =
                get("L2 compulsory", col) + get("L2 capacity", col) + get("L2 conflict", col);
            // The paper's tables round to thousands; allow 1% slack.
            assert!(
                (total as i64 - parts as i64).unsigned_abs() <= total / 100 + 2,
                "column {col}: {total} vs {parts}"
            );
        }
    };
    check(&paper::table3::ROWS);
    check(&paper::table5::ROWS);
    check(&paper::table7::ROWS);
    check(&paper::table9::ROWS);

    // Timing tables: every version has positive times on both machines.
    for rows in [
        &paper::table2::ROWS[..],
        &paper::table4::ROWS[..],
        &paper::table6::ROWS[..],
    ] {
        for (name, r8, r10) in rows {
            assert!(*r8 > 0.0 && *r10 > 0.0, "{name}");
        }
    }
}

#[test]
fn suites_produce_the_papers_version_lists() {
    let scale = ExpScale::smoke();
    let names: Vec<&str> =
        experiments::miss_rows(Kernel::MatMul, &scale, &[], &mut Runner::default())
            .into_iter()
            .map(|row| row.version)
            .collect();
    assert_eq!(
        names,
        vec![
            "matmul/interchanged",
            "matmul/transposed",
            "matmul/tiled-interchanged",
            "matmul/tiled-transposed",
            "matmul/threaded",
        ]
    );
}

/// The runner simulates each key once however often it is asked for:
/// a key named twice in one request and again in a later one is one
/// record. It is also `binpolicy`'s `pde.r8000.flat` cell, so
/// `binpolicy` adds 15 records to it, and `topology` then adds only its
/// 12 NUMA cells (its 12 R8000 rows are `binpolicy`'s 8): 28 in all.
#[test]
fn the_runner_simulates_each_key_once() {
    let scale = ExpScale::smoke();
    let mut runner = Runner::default();
    let key = CellKey::new(Kernel::Pde, "pde/threaded", Machine::R8000, &scale, 1);
    let twice = runner.run(&[key.clone(), key.clone()]);
    assert_eq!(runner.simulated(), 1);
    assert_eq!(twice[0], twice[1]);
    assert_eq!(runner.run(&[key]), [twice[0]]);
    assert_eq!(runner.simulated(), 1);

    let binpolicy = experiments::policy_ablation(&experiments::BINPOLICY, &scale, &mut runner);
    assert_eq!(runner.simulated(), 16);
    let flat = binpolicy
        .row("pde", "r8000", Binning::Flat)
        .expect("flat cell");
    assert_eq!(flat.report, twice[0]);
    experiments::policy_ablation(&experiments::TOPOLOGY, &scale, &mut runner);
    assert_eq!(runner.simulated(), 28);
}

#[test]
fn smoke_scale_tables_have_the_papers_shape() {
    let scale = ExpScale::smoke();
    let mut runner = Runner::default();

    // Table 3 shape: untiled >> threaded >= tiled-ish on L2 misses,
    // in exactly the paper's three columns.
    let versions = &paper::table3::VERSIONS;
    let rows = experiments::miss_rows(Kernel::MatMul, &scale, versions, &mut runner);
    assert_eq!(rows.len(), 3);
    for (row, version) in rows.iter().zip(versions) {
        assert_eq!(row.version, *version);
    }
    let untiled = &rows[0].report;
    let tiled = &rows[1].report;
    let threaded = &rows[2].report;
    assert!(untiled.l2.misses() > 2 * threaded.l2.misses());
    assert!(untiled.l2.misses() > 2 * tiled.l2.misses());
    assert!(untiled.classes.capacity > untiled.classes.conflict);

    // Table 7 shape: both transformations kill SOR capacity misses.
    // (At smoke scale the tiled version's O(n·s) band no longer fits
    // the over-shrunk L2, so its reduction is weaker than at default
    // scale — see the scaling_consistency tests.)
    let rows = experiments::miss_rows(Kernel::Sor, &scale, &[], &mut runner);
    assert_eq!(rows.len(), 3);
    let untiled = &rows[0].report;
    let tiled = &rows[1].report;
    let threaded = &rows[2].report;
    assert!(untiled.classes.capacity > 3 * tiled.classes.capacity.max(1));
    assert!(untiled.classes.capacity > 10 * threaded.classes.capacity.max(1));

    // Figure 4 shape: oversized blocks degrade matmul.
    let fig = experiments::figure4(&scale, &mut runner);
    let matmul_series = &fig
        .series
        .iter()
        .find(|(n, _)| n == "matmul")
        .expect("series")
        .1;
    let best = matmul_series.iter().copied().fold(f64::MAX, f64::min);
    let last = *matmul_series.last().expect("nonempty");
    assert!(
        last > 1.2 * best,
        "no knee: best {best}, 8M-equivalent {last}"
    );
}

#[test]
fn table1_runs_every_thread_and_reports_finite_positive_costs() {
    // Only what holds on any host: a wall-clock bound here fails under
    // load in a debug build. The per-thread cost itself is measured by
    // the benchmark's `sched_null` workload
    // (`core.fork_ns_per_thread + core.run_ns_per_thread`) and printed
    // by `repro -- table1`.
    let result = experiments::table1(50_000);
    assert_eq!(result.threads, 50_000);
    for (what, ns) in [("fork", result.fork_ns), ("run", result.run_ns)] {
        assert!(ns.is_finite() && ns > 0.0, "{what}: {ns} ns");
    }
}

/// The registry is well-formed: names are unique, the usage line lists
/// exactly the registry, and every entry `all` runs completes at
/// `--smoke` on one runner, as in one `repro` process, its artifact
/// payload a document the parser reads. (The serving trace is cut from
/// 100k to 3k requests: unoptimized, the full smoke trace alone takes
/// two minutes.)
#[test]
fn registry_is_consistent_and_runs_at_smoke() {
    for (i, experiment) in REGISTRY.iter().enumerate() {
        assert!(
            REGISTRY[..i].iter().all(|e| e.name != experiment.name),
            "duplicate experiment name {}",
            experiment.name
        );
    }

    let usage = cli::usage();
    let listed = usage
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("bracketed name list")
        .0;
    let mut expected = vec!["all"];
    expected.extend(REGISTRY.iter().map(|experiment| experiment.name));
    assert_eq!(listed.split('|').collect::<Vec<_>>(), expected);

    let scale = ExpScale {
        serve_requests: 3_000,
        ..ExpScale::smoke()
    };
    let mut runner = Runner::default();
    for experiment in REGISTRY.iter().filter(|e| e.in_all) {
        let fail = |err: String| -> ! { panic!("{}: {err}", experiment.name) };
        match experiment.run {
            Run::Print(run) => run(&scale, &mut runner).unwrap_or_else(|err| fail(err)),
            Run::Artifact(_, run) => {
                let json = run(&scale, &mut runner).unwrap_or_else(|err| fail(err));
                probe::json::Json::parse(&json).unwrap_or_else(|err| fail(err));
            }
        }
    }
}

fn parse(args: &[&str]) -> Result<(ExpScale, Vec<&'static Experiment>), String> {
    cli::parse(args.iter().map(|arg| (*arg).to_owned()))
}

#[test]
fn scale_and_shard_flags_are_processed_in_order() {
    let scale = |args: &[&str]| parse(args).expect("valid arguments").0;
    assert_eq!(scale(&[]), ExpScale::default_scaled());
    assert_eq!(scale(&["--full"]), ExpScale::full());
    assert_eq!(scale(&["table2", "--smoke"]), ExpScale::smoke());
    assert_eq!(scale(&["--smoke", "--full"]), ExpScale::full());

    // `--shards` and `--analyze` are retired: the first one met is the
    // error.
    assert_eq!(
        parse(&["--smoke", "--shards", "4", "--analyze"]).err(),
        Some("unknown flag: --shards".to_owned())
    );
    assert_eq!(
        parse(&["table1", "--shards=4"]).err(),
        Some("unknown flag: --shards=4".to_owned())
    );
}

#[test]
fn names_select_experiments_in_the_order_given() {
    let names = |args: &[&str]| -> Vec<&str> {
        let (_, wanted) = parse(args).expect("valid arguments");
        wanted.iter().map(|experiment| experiment.name).collect()
    };
    assert_eq!(names(&["table9", "table2"]), ["table9", "table2"]);
    assert_eq!(names(&["ablation", "steal"]), ["ablation", "steal"]);
    let all: Vec<&str> = REGISTRY
        .iter()
        .filter(|e| e.in_all)
        .map(|e| e.name)
        .collect();
    assert_eq!(names(&[]), all);
    assert_eq!(names(&["table2", "all"]), all);
}

#[test]
fn unknown_names_and_flags_are_errors() {
    assert_eq!(
        parse(&["tabel1", "--smoke"]).err(),
        Some("unknown experiment: tabel1".to_owned())
    );
    assert_eq!(
        parse(&["table1", "--smok"]).err(),
        Some("unknown flag: --smok".to_owned())
    );
}

/// One `repro` argument: a registry name, `all`, a scale flag, a
/// retired flag, a bare count, or an arbitrary short string.
fn token() -> impl Strategy<Value = String> {
    let fixed = |t: &'static str| Just(t.to_owned());
    prop_oneof![
        (0..REGISTRY.len()).prop_map(|i| REGISTRY[i].name.to_owned()),
        fixed("all"),
        fixed("--full"),
        fixed("--smoke"),
        fixed("--shards"),
        fixed("--shards=4"),
        fixed("--analyze"),
        fixed("4"),
        prop::collection::vec(any::<u8>(), 0..8)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
    ]
}

proptest! {
    /// `cli::parse` never panics and accepts exactly the vocabulary:
    /// any token that is not a name, `all` or a scale flag is an error
    /// naming the first such token — an unknown flag (every retired
    /// flag among them) if it starts with `-`, else an unknown name.
    /// Accepted lines select the named experiments in order (the `all`
    /// set when `all` or no name is given) at the last scale flag.
    #[test]
    fn cli_parse_accepts_exactly_names_all_and_scale_flags(
        tokens in prop::collection::vec(token(), 0..6),
    ) {
        let is_name = |t: &str| REGISTRY.iter().any(|e| e.name == t);
        let valid = |t: &str| matches!(t, "all" | "--full" | "--smoke") || is_name(t);
        let args: Vec<&str> = tokens.iter().map(String::as_str).collect();
        match (parse(&args), args.iter().find(|t| !valid(t))) {
            (Ok((scale, wanted)), None) => {
                let expected_scale = match args.iter().rev().find(|t| t.starts_with("--")) {
                    Some(&"--full") => ExpScale::full(),
                    Some(_) => ExpScale::smoke(),
                    None => ExpScale::default_scaled(),
                };
                prop_assert_eq!(scale, expected_scale);
                let named: Vec<&str> = args.iter().copied().filter(|t| is_name(t)).collect();
                let expected: Vec<&str> = if named.is_empty() || args.contains(&"all") {
                    REGISTRY.iter().filter(|e| e.in_all).map(|e| e.name).collect()
                } else {
                    named
                };
                let got: Vec<&str> = wanted.iter().map(|e| e.name).collect();
                prop_assert_eq!(got, expected);
            }
            (Err(err), Some(bad)) => {
                let kind = if bad.starts_with('-') { "flag" } else { "experiment" };
                prop_assert_eq!(err, format!("unknown {kind}: {bad}"));
            }
            (parsed, bad) => panic!("{args:?}: parsed {parsed:?}, first invalid {bad:?}"),
        }
    }
}
