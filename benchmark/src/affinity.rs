//! Choosing the CPU a workload is pinned to, and finding `taskset`.
//!
//! Every workload runs in its own process on one CPU: its peak RSS is
//! then its own, and `ShardedSimSink` — which spawns worker threads
//! only when `available_parallelism() > 1` — drains inline instead of
//! racing two workers for a second core.

use std::ffi::OsStr;
use std::path::PathBuf;

/// Parses a kernel CPU list such as `0-3,8,10-11`. Malformed pieces
/// are skipped, so garbage yields an empty list, never a panic.
pub fn parse_cpu_list(list: &str) -> Vec<u32> {
    let mut cpus = Vec::new();
    for piece in list.trim().split(',') {
        let (first, last) = piece.split_once('-').unwrap_or((piece, piece));
        if let (Ok(first), Ok(last)) = (first.trim().parse::<u32>(), last.trim().parse::<u32>()) {
            // A range is bounded by the kernel's CPU limit, not by us;
            // cap it so a hostile string cannot allocate without end.
            cpus.extend((first..=last).take(4096));
        }
    }
    cpus
}

/// The CPUs this process may run on, from `/proc/self/status`; empty
/// when that cannot be read (not Linux).
pub fn allowed_cpus() -> Vec<u32> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        })
        .unwrap_or_default()
}

/// Finds an executable called `program` in the directories of `path`
/// (the value of `PATH`).
pub fn find_in_path(program: &str, path: &OsStr) -> Option<PathBuf> {
    std::env::split_paths(path)
        .map(|dir| dir.join(program))
        .find(|candidate| candidate.is_file())
}

/// How to pin a child: the `taskset` executable and the CPU to pin to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pin {
    pub taskset: PathBuf,
    pub cpu: u32,
}

impl Pin {
    /// Plans pinning from the allowed CPUs and `PATH`. `None` — run
    /// unpinned, and say so in the results — when `taskset` is not
    /// installed or the allowed CPUs are unknown. The last allowed CPU
    /// is chosen: CPU 0 takes most of a small host's interrupts.
    pub fn plan(allowed: &[u32], path: &OsStr) -> Option<Pin> {
        Some(Pin {
            cpu: *allowed.last()?,
            taskset: find_in_path("taskset", path)?,
        })
    }

    /// [`plan`](Self::plan) for this process.
    pub fn detect() -> Option<Pin> {
        Pin::plan(
            &allowed_cpus(),
            &std::env::var_os("PATH").unwrap_or_default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kernel_cpu_lists() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("\t0-3,8,10-11"), [0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpu_list("5"), [5]);
        assert_eq!(parse_cpu_list(""), Vec::<u32>::new());
        assert_eq!(parse_cpu_list("x,3-,-,2"), [2]);
        assert_eq!(parse_cpu_list("0-4294967295").len(), 4096);
    }

    /// A scratch directory beside the test executable (inside the
    /// cargo target directory), so tests leave nothing elsewhere.
    fn scratch_dir(name: &str) -> PathBuf {
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn falls_back_to_unpinned_when_taskset_is_absent() {
        let empty = scratch_dir("no-taskset");
        assert_eq!(Pin::plan(&[0, 1], empty.as_os_str()), None);
        assert_eq!(Pin::plan(&[0, 1], OsStr::new("")), None);
        assert_eq!(Pin::plan(&[0, 1], OsStr::new("/nonexistent-dir")), None);
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn pins_to_the_last_allowed_cpu_when_taskset_exists() {
        let dir = scratch_dir("taskset");
        std::fs::write(dir.join("taskset"), "").unwrap();
        let pin = Pin::plan(&[0, 2, 5], dir.as_os_str()).unwrap();
        assert_eq!((pin.cpu, pin.taskset), (5, dir.join("taskset")));
        assert_eq!(
            Pin::plan(&[], dir.as_os_str()),
            None,
            "unknown CPUs: do not pin"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn this_process_has_an_affinity_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(!allowed_cpus().is_empty());
        }
    }
}
