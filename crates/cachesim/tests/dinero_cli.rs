//! End-to-end test of the `dinero` trace-replay tool.

use memtrace::{Addr, TraceFileWriter, TraceSink};
use std::process::Command;

fn write_trace(path: &std::path::Path) {
    let file = std::fs::File::create(path).expect("create trace");
    let mut writer = TraceFileWriter::new(file);
    // Two passes over 64 KiB: second pass hits a 2 MB L2.
    for _pass in 0..2 {
        for off in (0..65536u64).step_by(8) {
            writer.read(Addr::new(0x1000_0000 + off), 8);
        }
    }
    writer.instructions(100_000);
    writer.finish().expect("flush trace");
}

fn dinero() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dinero"))
}

#[test]
fn replays_a_trace_and_prints_the_report() {
    let dir = std::env::temp_dir().join(format!("dinero-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.bin");
    write_trace(&trace);

    let output = dinero().arg(&trace).output().expect("run dinero");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("D references"), "{stdout}");
    assert!(stdout.contains("16385 events"), "{stdout}");
    assert!(stdout.contains("L2 compulsory"), "{stdout}");
    assert!(stdout.contains("modeled on R8000"), "{stdout}");

    // Custom geometry: an L2 too small for the working set shows
    // capacity misses; the default does not.
    let output = dinero()
        .args(["--l2", "16K:128:4"])
        .arg(&trace)
        .output()
        .expect("run dinero");
    assert!(output.status.success());
    let small = String::from_utf8(output.stdout).unwrap();
    assert!(small.contains("16KB/4-way/128B-line"), "{small}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_bad_arguments() {
    let output = dinero().output().expect("run dinero");
    assert!(!output.status.success(), "no trace file must fail");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("usage"), "{stderr}");

    let output = dinero()
        .args(["--l2", "banana"])
        .arg("/nonexistent")
        .output()
        .expect("run dinero");
    assert!(!output.status.success());

    // Geometry no hierarchy can have is a usage error, not a panic: an
    // L2 line shorter than the L1 line, a size past 64 bits, and one
    // that fits 64 bits but whose 2^38 lines no host could allocate.
    for (flags, why) in [
        (
            ["--l1", "16K:64:1", "--l2", "2M:32:4"],
            "L2 line (32) must be >= L1 line (64)",
        ),
        (
            ["--l1", "17592186044416M:32:1", "--l2", "2M:128:4"],
            "does not fit in 64 bits",
        ),
        (
            ["--l1", "8388608M:32:1", "--l2", "2M:128:4"],
            "274877906944 lines, more than the 268435456 a level may have",
        ),
    ] {
        let output = dinero().args(flags).arg("/nonexistent").output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{flags:?}: {output:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains(why) && stderr.contains("usage"), "{stderr}");
    }

    let output = dinero().arg("/nonexistent-trace-file").output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("cannot open"), "{stderr}");
}

/// With one-byte lines the top address would be line `u64::MAX`, the
/// tag the simulator marks an empty way with, and its first reference
/// an L1 hit: such a geometry is a usage error, and the shortest line
/// there is replays the record as one miss at each level.
#[test]
fn one_byte_lines_are_refused_and_the_top_address_misses() {
    let dir = std::env::temp_dir().join(format!("dinero-test3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("top.bin");
    let mut writer = TraceFileWriter::new(std::fs::File::create(&trace).unwrap());
    writer.read(Addr::new(u64::MAX), 1);
    writer.finish().expect("flush trace");

    let output = dinero()
        .args(["--l1", "64:1:1", "--l2", "1024:1:2"])
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("line 1 is shorter than the 2 bytes a line must have")
            && stderr.contains("usage"),
        "{stderr}"
    );

    let output = dinero()
        .args(["--l1", "64:2:1", "--l2", "1024:2:2"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    // The report counts in thousands; the rates show the one miss.
    let rates: Vec<&str> = stdout.lines().filter(|l| l.contains("rate")).collect();
    assert_eq!(rates.len(), 2, "{stdout}");
    assert!(rates.iter().all(|l| l.contains("100.0%")), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--mmu` and `--write-through-l1` name a page mapping and an L1 write
/// policy the simulator does not have: they are unknown flags, a usage
/// error like any other.
#[test]
fn retired_flags_exit_2() {
    let dir = std::env::temp_dir().join(format!("dinero-test2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.bin");
    write_trace(&trace);

    for flags in [vec!["--mmu", "random"], vec!["--write-through-l1"]] {
        let output = dinero().args(&flags).arg(&trace).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{flags:?}: {output:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(
            stderr.contains("usage: dinero") && !stderr.contains("panicked"),
            "{flags:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{flags:?}");
    }
    let output = dinero()
        .args(["--machine", "r10000"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace may put a record anywhere: the traced thread package lives
/// at `0x7f00_0000_0000`, a corrupt file can say `u64::MAX - 7`. Both
/// are replayed, not asserted away.
#[test]
fn records_past_a_terabyte_replay() {
    let dir = std::env::temp_dir().join(format!("dinero-test4-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("far.bin");
    let mut writer = TraceFileWriter::new(std::fs::File::create(&trace).unwrap());
    writer.read(Addr::new(0x7f00_0000_0000), 8);
    writer.write(Addr::new(u64::MAX - 7), 8);
    writer.finish().expect("flush trace");

    let output = dinero().arg(&trace).output().unwrap();
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("2 events"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
