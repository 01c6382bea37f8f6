//! `pbs-benchmark` — the repository's end-to-end, layer-attributed
//! benchmark. See `README.md` next to this package and `BENCHMARK.json` at
//! the repository root.
//!
//! ```text
//! pbs-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     one run of one workload; the last line of stdout is the result
//!     object (`--trace 0`: every end-to-end metric, `--trace 1`: every
//!     per-layer metric).
//! pbs-benchmark [--repeat N] [--seed N] [--seconds S] [--smoke]
//!     every workload, each run in a fresh subprocess, untraced then
//!     traced; with --repeat, N sets on N seeds plus a fixed-seed pair, and
//!     a verdict per metric on whether the runs agree within its bound.
//! ```

mod engine;
mod gen;
mod host;
mod json;
mod layers;
mod metrics;
mod pin;
mod replay;
mod span;
mod stats;
mod suite;
mod workload;

use metrics::Definition;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value("--repeat")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err("see benchmark/README.md".into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The package directory (`benchmark/`): where `out/` lives and, one level
/// up, `BENCHMARK.json`. `cargo run` exports it at run time; a binary
/// started by hand falls back to where it was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let package = package_dir();
        let definition = Definition::load(&package.join("../BENCHMARK.json"))?;
        match &args.workload {
            Some(_) => suite::single_run(&args, &definition, &package).map(|(line, ok)| {
                println!("{line}");
                ok
            }),
            None => suite::all_workloads(&args, &definition),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("pbs-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
