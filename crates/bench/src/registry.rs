//! The experiment registry: every name `repro` accepts is one row of
//! [`REGISTRY`] — name, whether `all` runs it, and how it runs (which
//! names the artifact file, if it writes one). Every run takes the
//! problem scale and the invocation's [`Runner`]. The paper's eight
//! result tables (through `experiments::time_rows` or `miss_rows`),
//! Figure 4 and the policy ablations list the simulation keys they
//! project and read the records from it, so a cell several experiments
//! share is simulated once per invocation.

use crate::experiments::{self, Runner};
use crate::{paper, print, servebench, studies, ExpScale};
use workloads::Kernel;

/// How an experiment runs. Both kinds print their results to stdout and
/// may fail with a reason.
#[derive(Debug)]
pub enum Run {
    /// Prints only.
    Print(fn(&ExpScale, &mut Runner) -> Result<(), String>),
    /// Also returns the JSON payload `repro` writes to the named file
    /// in the working directory.
    Artifact(
        &'static str,
        fn(&ExpScale, &mut Runner) -> Result<String, String>,
    ),
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
        run: Run::Print(|_, _| {
            print::table1(&experiments::table1(paper::table1::THREADS));
            Ok(())
        }),
    },
    Experiment {
        name: "table2",
        in_all: true,
        run: Run::Print(|scale, runner| {
            let title = format!("Table 2: matrix multiply (n = {})", scale.matmul_n);
            let note = "Modeled seconds on ratio-preserved scaled machines; \
                        compare ratios, not absolutes.";
            let rows = experiments::time_rows(Kernel::MatMul, scale, runner);
            print::time_table(&title, &rows, &paper::table2::ROWS, note);
            Ok(())
        }),
    },
    Experiment {
        name: "table3",
        in_all: true,
        run: Run::Print(|scale, runner| {
            let title = "Table 3: matmul memory references and cache misses (scaled R8000)";
            let versions = &paper::table3::VERSIONS;
            let rows = experiments::miss_rows(Kernel::MatMul, scale, versions, runner);
            print::miss_table(title, &rows, &paper::table3::ROWS);
            Ok(())
        }),
    },
    Experiment {
        name: "table4",
        in_all: true,
        run: Run::Print(|scale, runner| {
            let title = format!(
                "Table 4: PDE (n = {}, {} iterations + residual)",
                scale.pde_n, scale.pde_iters
            );
            let rows = experiments::time_rows(Kernel::Pde, scale, runner);
            print::time_table(&title, &rows, &paper::table4::ROWS, "");
            Ok(())
        }),
    },
    Experiment {
        name: "table5",
        in_all: true,
        run: Run::Print(|scale, runner| {
            let title = "Table 5: PDE cache misses (scaled R8000)";
            let rows = experiments::miss_rows(Kernel::Pde, scale, &[], runner);
            print::miss_table(title, &rows, &paper::table5::ROWS);
            Ok(())
        }),
    },
    Experiment {
        name: "table6",
        in_all: true,
        run: Run::Print(|scale, runner| {
            let title = format!(
                "Table 6: SOR (n = {}, t = {}, tile {})",
                scale.sor_n, scale.sor_t, scale.sor_tile
            );
            let rows = experiments::time_rows(Kernel::Sor, scale, runner);
            print::time_table(&title, &rows, &paper::table6::ROWS, "");
            Ok(())
        }),
    },
    Experiment {
        name: "table7",
        in_all: true,
        run: Run::Print(|scale, runner| {
            let title = "Table 7: SOR memory references and cache misses (scaled R8000)";
            let rows = experiments::miss_rows(Kernel::Sor, scale, &[], runner);
            print::miss_table(title, &rows, &paper::table7::ROWS);
            Ok(())
        }),
    },
    Experiment {
        name: "table8",
        in_all: true,
        run: Run::Print(|scale, runner| {
            let title = format!(
                "Table 8: N-body ({} bodies, {} iterations)",
                scale.nbody_n, scale.nbody_iters
            );
            let rows = experiments::time_rows(Kernel::NBody, scale, runner);
            print::time_table(&title, &rows, &paper::table8::ROWS, "");
            Ok(())
        }),
    },
    Experiment {
        name: "table9",
        in_all: true,
        run: Run::Print(|scale, runner| {
            let title = "Table 9: N-body cache misses, one iteration (scaled R8000)";
            let rows = experiments::miss_rows(Kernel::NBody, scale, &[], runner);
            print::miss_table(title, &rows, &paper::table9::ROWS);
            Ok(())
        }),
    },
    Experiment {
        name: "figure4",
        in_all: true,
        run: Run::Print(|scale, runner| {
            print::figure4(&experiments::figure4(scale, runner));
            Ok(())
        }),
    },
    Experiment {
        name: "steal",
        in_all: true,
        run: Run::Artifact("BENCH_steal.json", |scale, _| {
            let result = experiments::steal(scale);
            print::steal(&result);
            Ok(result.to_json())
        }),
    },
    Experiment {
        name: "binpolicy",
        in_all: true,
        run: Run::Artifact("BENCH_binpolicy.json", |scale, runner| {
            let result = experiments::policy_ablation(&experiments::BINPOLICY, scale, runner);
            print::policy_ablation(&result);
            Ok(result.to_json())
        }),
    },
    Experiment {
        name: "topology",
        in_all: true,
        run: Run::Artifact("BENCH_topology.json", |scale, runner| {
            let result = experiments::policy_ablation(&experiments::TOPOLOGY, scale, runner);
            print::policy_ablation(&result);
            Ok(result.to_json())
        }),
    },
    Experiment {
        name: "servebench",
        in_all: true,
        run: Run::Artifact("BENCH_serve.json", |scale, _| {
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
        run: Run::Print(|scale, _| {
            studies::ablation(scale);
            Ok(())
        }),
    },
    Experiment {
        name: "modern",
        in_all: false,
        run: Run::Print(|scale, _| {
            studies::modern(scale);
            Ok(())
        }),
    },
];

/// The long-run bounded-memory gate: fails if the bin table ever
/// exceeded its cap or the request accounting does not balance.
fn servelong(scale: &ExpScale, _: &mut Runner) -> Result<(), String> {
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
fn analyze(_: &ExpScale, _: &mut Runner) -> Result<String, String> {
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
