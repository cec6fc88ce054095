//! The experiment registry: every name `repro` accepts is one row of
//! [`REGISTRY`] — name, whether `all` runs it, and how it runs (which
//! names the artifact file, if it writes one). The paper's eight result
//! tables are rows over two shapes (`time_table`, `miss_table`):
//! kernel, title, the paper's published rows, and for Table 3 a version
//! filter.
//!
//! Every run takes the problem scale; batches of simulation cells run
//! under [`Driver::default()`] (`Driver::Sequential` is the tests'
//! reference).

use crate::experiments::{self, Driver};
use crate::{paper, print, servebench, studies, ExpScale};
use workloads::Kernel;

/// How an experiment runs. Both kinds print their results to stdout and
/// may fail with a reason.
#[derive(Debug)]
pub enum Run {
    /// Prints only.
    Print(fn(&ExpScale) -> Result<(), String>),
    /// Also returns the JSON payload `repro` writes to the named file
    /// in the working directory.
    Artifact(&'static str, fn(&ExpScale) -> Result<String, String>),
}

/// One runnable experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name `repro` accepts.
    pub name: &'static str,
    /// Whether `repro` with no names (or `all`) runs it.
    pub in_all: bool,
    /// How it runs.
    pub run: Run,
}

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|experiment| experiment.name == name)
}

/// Every experiment, in the order `all` runs them.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        name: "table1",
        in_all: true,
        run: Run::Print(|_| {
            print::table1(&experiments::table1(paper::table1::THREADS));
            Ok(())
        }),
    },
    Experiment {
        name: "table2",
        in_all: true,
        run: Run::Print(|scale| {
            let title = format!("Table 2: matrix multiply (n = {})", scale.matmul_n);
            let note = "Modeled seconds on ratio-preserved scaled machines; \
                        compare ratios, not absolutes.";
            time_table(scale, Kernel::MatMul, &title, &paper::table2::ROWS, note)
        }),
    },
    Experiment {
        name: "table3",
        in_all: true,
        run: Run::Print(|scale| {
            let title = "Table 3: matmul memory references and cache misses (scaled R8000)";
            let versions = &paper::table3::VERSIONS;
            miss_table(scale, Kernel::MatMul, title, &paper::table3::ROWS, versions)
        }),
    },
    Experiment {
        name: "table4",
        in_all: true,
        run: Run::Print(|scale| {
            let title = format!(
                "Table 4: PDE (n = {}, {} iterations + residual)",
                scale.pde_n, scale.pde_iters
            );
            time_table(scale, Kernel::Pde, &title, &paper::table4::ROWS, "")
        }),
    },
    Experiment {
        name: "table5",
        in_all: true,
        run: Run::Print(|scale| {
            let title = "Table 5: PDE cache misses (scaled R8000)";
            miss_table(scale, Kernel::Pde, title, &paper::table5::ROWS, &[])
        }),
    },
    Experiment {
        name: "table6",
        in_all: true,
        run: Run::Print(|scale| {
            let title = format!(
                "Table 6: SOR (n = {}, t = {}, tile {})",
                scale.sor_n, scale.sor_t, scale.sor_tile
            );
            time_table(scale, Kernel::Sor, &title, &paper::table6::ROWS, "")
        }),
    },
    Experiment {
        name: "table7",
        in_all: true,
        run: Run::Print(|scale| {
            let title = "Table 7: SOR memory references and cache misses (scaled R8000)";
            miss_table(scale, Kernel::Sor, title, &paper::table7::ROWS, &[])
        }),
    },
    Experiment {
        name: "table8",
        in_all: true,
        run: Run::Print(|scale| {
            let title = format!(
                "Table 8: N-body ({} bodies, {} iterations)",
                scale.nbody_n, scale.nbody_iters
            );
            time_table(scale, Kernel::NBody, &title, &paper::table8::ROWS, "")
        }),
    },
    Experiment {
        name: "table9",
        in_all: true,
        run: Run::Print(|scale| {
            let title = "Table 9: N-body cache misses, one iteration (scaled R8000)";
            miss_table(scale, Kernel::NBody, title, &paper::table9::ROWS, &[])
        }),
    },
    Experiment {
        name: "figure4",
        in_all: true,
        run: Run::Print(|scale| {
            print::figure4(&experiments::figure4(scale, Driver::default()));
            Ok(())
        }),
    },
    Experiment {
        name: "steal",
        in_all: true,
        run: Run::Artifact("BENCH_steal.json", |scale| {
            let result = experiments::steal(scale);
            print::steal(&result);
            Ok(result.to_json())
        }),
    },
    Experiment {
        name: "binpolicy",
        in_all: true,
        run: Run::Artifact("BENCH_binpolicy.json", |scale| {
            policy_ablation(&experiments::BINPOLICY, scale)
        }),
    },
    Experiment {
        name: "topology",
        in_all: true,
        run: Run::Artifact("BENCH_topology.json", |scale| {
            policy_ablation(&experiments::TOPOLOGY, scale)
        }),
    },
    Experiment {
        name: "servebench",
        in_all: true,
        run: Run::Artifact("BENCH_serve.json", |scale| {
            let result = servebench::servebench(scale);
            print::servebench(&result);
            Ok(result.to_json())
        }),
    },
    Experiment {
        name: "servelong",
        in_all: false,
        run: Run::Print(servelong),
    },
    Experiment {
        name: "analyze",
        in_all: false,
        run: Run::Artifact("ANALYZE_smoke.json", analyze),
    },
    Experiment {
        name: "ablation",
        in_all: false,
        run: Run::Print(|scale| {
            studies::ablation(scale);
            Ok(())
        }),
    },
    Experiment {
        name: "modern",
        in_all: false,
        run: Run::Print(|scale| {
            studies::modern(scale);
            Ok(())
        }),
    },
];

/// A timing table (Tables 2/4/6/8): every version of `kernel` on both
/// scaled machines next to the paper's `(version, R8000 s, R10000 s)`
/// rows, with `note` printed underneath.
fn time_table(
    scale: &ExpScale,
    kernel: Kernel,
    title: &str,
    paper_rows: &[(&str, f64, f64)],
    note: &str,
) -> Result<(), String> {
    let rows = experiments::time_rows(kernel, scale, Driver::default());
    print::time_table(title, &rows, paper_rows, note);
    Ok(())
}

/// A reference/miss table (Tables 3/5/7/9): the named `versions` of
/// `kernel` (every version when empty) simulated on the scaled R8000,
/// next to the paper's `(metric, [thousands per version])` rows.
fn miss_table(
    scale: &ExpScale,
    kernel: Kernel,
    title: &str,
    paper_rows: &[(&str, &[u64])],
    versions: &[&str],
) -> Result<(), String> {
    let rows = experiments::miss_rows(kernel, scale, versions, Driver::default());
    print::miss_table(title, &rows, paper_rows);
    Ok(())
}

fn policy_ablation(
    spec: &'static experiments::PolicyAblation,
    scale: &ExpScale,
) -> Result<String, String> {
    let result = experiments::policy_ablation(spec, scale, Driver::default());
    print::policy_ablation(&result);
    Ok(result.to_json())
}

/// The long-run bounded-memory gate: fails if the bin table ever
/// exceeded its cap or the request accounting does not balance.
fn servelong(scale: &ExpScale) -> Result<(), String> {
    let (result, violations) = servebench::servelong(scale);
    print::servebench(&result);
    if !violations.is_empty() {
        return Err(violations
            .iter()
            .map(|violation| format!("servelong VIOLATION: {violation}"))
            .collect::<Vec<_>>()
            .join("\n"));
    }
    println!(
        "\nservelong: OK — {} requests per policy, live bin records never exceeded {}",
        result.trace.requests,
        servebench::SERVELONG_CAP
    );
    Ok(())
}

/// The `schedlint` four-kernel schedule-safety self-check. Fixed
/// analysis scale, independent of `--smoke`/`--full`: the committed
/// `ANALYZE_smoke.json` baseline must be byte-reproducible on every
/// host.
fn analyze(_: &ExpScale) -> Result<String, String> {
    let machine = analyze::default_machine();
    let opts = analyze::AnalyzeOptions::default();
    let mut report = analyze::AnalyzeReport::new(machine.name(), opts.hint_threshold_pct);
    for kernel in Kernel::ALL {
        let capture = analyze::capture_kernel(kernel, &machine, &analyze::AnalyzeScale::default());
        report.kernels.push(analyze::analyze(&capture, &opts));
    }
    print!("{}", report.to_text());
    Ok(report.to_json())
}
