//! Golden smoke tests: run `repro` end to end at `--smoke` scale and
//! snapshot the *shape* of its output — row and column counts and
//! numeric sanity — without pinning host-dependent timing values; plus
//! the exit codes a CI gate relies on.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run_smoke(experiment: &str) -> String {
    let output = repro()
        .args([experiment, "--smoke"])
        .output()
        .unwrap_or_else(|err| panic!("spawning repro {experiment}: {err}"));
    assert!(
        output.status.success(),
        "repro {experiment} --smoke failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("repro emits UTF-8")
}

/// Every whitespace-separated numeric token in `line` after the first
/// `skip` tokens, asserted finite.
fn finite_numbers(line: &str, skip: usize) -> Vec<f64> {
    line.split_whitespace()
        .skip(skip)
        .map(|tok| {
            let v: f64 = tok
                .parse()
                .unwrap_or_else(|_| panic!("non-numeric cell {tok:?} in {line:?}"));
            assert!(v.is_finite(), "non-finite cell in {line:?}");
            v
        })
        .collect()
}

#[test]
fn table1_smoke_output_has_the_papers_shape() {
    let stdout = run_smoke("table1");
    assert!(
        stdout.contains("Table 1: thread overhead"),
        "missing title:\n{stdout}"
    );
    assert!(!stdout.contains("NaN"), "NaN in output:\n{stdout}");

    let lines: Vec<&str> = stdout.lines().collect();
    // One measured row per paper row, in the paper's order.
    for label in ["Fork", "Run", "Total"] {
        let row = lines
            .iter()
            .find(|l| l.split_whitespace().next() == Some(label))
            .unwrap_or_else(|| panic!("missing row {label}:\n{stdout}"));
        // Label + host + paper R8000 + paper R10000.
        let cells = finite_numbers(row, 1);
        assert_eq!(cells.len(), 3, "row {label}: {row:?}");
        assert!(cells.iter().all(|&v| v > 0.0), "row {label}: {row:?}");
    }
    // The modeled L2-miss row has no host measurement.
    let miss = lines
        .iter()
        .find(|l| l.starts_with("L2 miss"))
        .unwrap_or_else(|| panic!("missing L2 miss row:\n{stdout}"));
    assert!(miss.split_whitespace().any(|tok| tok == "-"), "{miss:?}");
    // Footer names the thread count.
    assert!(stdout.contains("null threads"), "{stdout}");
}

#[test]
fn figure4_smoke_output_has_the_papers_shape() {
    let stdout = run_smoke("figure4");
    assert!(
        stdout.contains("Figure 4: execution time vs block dimension size"),
        "missing title:\n{stdout}"
    );
    assert!(!stdout.contains("NaN"), "NaN in output:\n{stdout}");

    let lines: Vec<&str> = stdout.lines().collect();
    let header = lines
        .iter()
        .find(|l| l.starts_with("block"))
        .unwrap_or_else(|| panic!("missing header:\n{stdout}"));
    // "block (full-equiv)" plus the four workload series.
    for series in ["matmul", "pde", "sor", "nbody"] {
        assert!(header.contains(series), "{header:?}");
    }

    // The paper sweeps 64K..8M: eight block-size rows, one modeled
    // time per series, all positive and finite.
    let expected_blocks = ["64K", "128K", "256K", "512K", "1M", "2M", "4M", "8M"];
    let mut seen = 0;
    for (i, block) in expected_blocks.iter().enumerate() {
        let row = lines
            .iter()
            .find(|l| l.split_whitespace().next() == Some(*block))
            .unwrap_or_else(|| panic!("missing block row {block}:\n{stdout}"));
        let cells = finite_numbers(row, 1);
        assert_eq!(cells.len(), 4, "block {block}: {row:?}");
        assert!(cells.iter().all(|&v| v > 0.0), "block {block}: {row:?}");
        seen = i + 1;
    }
    assert_eq!(seen, 8);

    // One ASCII sparkline per series, annotated with its min and max.
    for series in ["matmul", "pde", "sor", "nbody"] {
        let spark = lines
            .iter()
            .find(|l| l.trim_start().starts_with(series) && l.contains('['))
            .unwrap_or_else(|| panic!("missing sparkline for {series}:\n{stdout}"));
        assert!(spark.contains("(min") && spark.contains("max"), "{spark:?}");
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The paper's simulated tables and figure are pinned byte for byte:
/// every number they print is a modeled count or time, so one `repro`
/// process running all of them at `--smoke` must print exactly the
/// committed output (digested with FNV-1a). A change that moves any
/// simulated value, or the order or format of any row, fails here.
#[test]
fn simulated_tables_and_figure4_are_pinned_at_smoke() {
    let output = repro()
        .args([
            "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
            "figure4", "--smoke",
        ])
        .output()
        .expect("spawning repro");
    assert!(output.status.success(), "{output:?}");
    assert_eq!(
        fnv1a(&output.stdout),
        0xccde_08bd_b4c8_11f8,
        "stdout changed:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
}

/// A study run through `repro` prints exactly what its former binary
/// printed, framed like every other experiment: `repro`'s two-line
/// scale header before it and one blank line after it.
#[test]
fn studies_print_between_the_harness_header_and_a_blank_line() {
    let stdout = run_smoke("modern");
    let body = stdout
        .strip_prefix(
            "thread-locality reproduction harness \
             (scale: matmul n=96, pde n=257, sor n=251, nbody n=2000)\n\n",
        )
        .unwrap_or_else(|| panic!("missing scale header:\n{stdout}"));
    assert!(
        body.starts_with("Locality scheduling, 1996 vs a modern hierarchy (matmul n = 96)\n"),
        "{body}"
    );
    assert!(
        body.ends_with("performance gap increases\"), quantified.\n\n")
            && !body.ends_with("\n\n\n"),
        "{body}"
    );
}

/// The symmetric-folding ablation runs a fixed kernel (n = 96 on the
/// 1/32 R8000) whatever the scale, so its rows are pinned exactly:
/// folding takes the pairwise kernel from 9 bins to 6 and its L2
/// misses from 1214 to 782.
#[test]
fn ablation_pins_the_symmetric_folding_rows() {
    let stdout = run_smoke("ablation");
    let rows = "\
folding                  bins  L2 misses  modeled s
---------------------------------------------------
off                         9       1214      0.083
on (paper's 50% saving)     6        782      0.083
";
    let section = stdout
        .split_once("Ablation 1: symmetric-hint folding (pairwise column kernel)\n\n")
        .unwrap_or_else(|| panic!("missing folding section:\n{stdout}"))
        .1;
    assert!(section.starts_with(rows), "{section}");
    assert!(
        stdout.contains("Ablation 2: N-body"),
        "missing the N-body section:\n{stdout}"
    );
    assert!(!stdout.contains("page mapping"), "{stdout}");
}

/// Usage errors exit 2 with a usage line naming the registry, and run
/// nothing — the retired `--shards` and `--analyze` flags and the
/// retired `sensitivity` study included.
#[test]
fn usage_errors_exit_2() {
    for args in [
        &["tabel1", "--smoke"][..],
        &["table1", "--smok"],
        &["table1", "--shards", "4"],
        &["table1", "--analyze"],
        &["sensitivity", "--smoke"],
    ] {
        let output = repro().args(args).output().expect("spawning repro");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: repro [all|table1|"), "{stderr}");
        assert!(output.stdout.is_empty(), "{args:?} ran something");
    }
}

/// An artifact that cannot be written fails the run, so a gate can
/// never go on to diff a stale file.
#[test]
fn failed_artifact_write_exits_1() {
    let dir = std::env::temp_dir().join(format!("repro-unwritable-{}", std::process::id()));
    // A directory squatting on the artifact's name makes the write fail.
    std::fs::create_dir_all(dir.join("ANALYZE_smoke.json")).expect("scratch dir");
    let output = repro()
        .arg("analyze")
        .current_dir(&dir)
        .output()
        .expect("spawning repro");
    std::fs::remove_dir_all(&dir).expect("scratch dir cleanup");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("could not write ANALYZE_smoke.json"),
        "{stderr}"
    );
}

/// A baseline nested 200,000 arrays deep is a parse error (exit 2),
/// not a gate killed by a stack overflow.
#[test]
fn benchdiff_rejects_hostile_nesting_with_exit_2() {
    let path = std::env::temp_dir().join(format!("benchdiff-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).expect("scratch file");
    let output = Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .args([&path, &path])
        .output()
        .expect("spawning benchdiff");
    std::fs::remove_file(&path).expect("scratch file cleanup");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("benchdiff: ") && stderr.contains("nesting"),
        "{stderr}"
    );
}

/// A bad `benchdiff` command line exits 2 and prints no table: a
/// missing, negative or non-finite `--threshold`, a third path, and the
/// retired `--gate-throughput`. The same two files with a good
/// threshold pass, so each refusal is the argument's doing.
#[test]
fn benchdiff_usage_errors_exit_2() {
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../baselines/BENCH_binpolicy.json"
    );
    let benchdiff = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_benchdiff"))
            .args([baseline, baseline])
            .args(extra)
            .output()
            .expect("spawning benchdiff")
    };
    assert_eq!(benchdiff(&["--threshold", "0.15"]).status.code(), Some(0));
    for extra in [
        &["--threshold"][..],
        &["--threshold", "-1"],
        &["--threshold", "nan"],
        &["--threshold", "inf"],
        &[baseline],
        &["--gate-throughput"],
    ] {
        let output = benchdiff(extra);
        assert_eq!(output.status.code(), Some(2), "{extra:?}");
        assert!(output.stdout.is_empty(), "{extra:?} printed a table");
    }
}
