//! The two commands: one run of one workload (what the benchmark contract
//! invokes), and the whole set — every workload in a fresh subprocess, so
//! `peak_rss_mb` is per workload — optionally repeated as a self-check.

use crate::engine::{self, Checks};
use crate::host;
use crate::json::{self, Json};
use crate::layers;
use crate::metrics::{self, Declared, Definition};
use crate::pin;
use crate::replay;
use crate::stats::{median, quantile, quartiles_exclusive};
use crate::workload::{self, Workload, WORKERS};
use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Most spans written to `out/trace_<workload>.json` (the head of the run;
/// every span is still analysed).
const TRACE_DUMP_CAP: usize = 50_000;

/// Shares of a traced run's `--seconds`: the untraced loopback pass (phase
/// timers, server counters, the `sync_p50_ms` the shares refer to), the
/// replay with spans on, and the replay with spans off.
const TRACED_SPLIT: [f64; 3] = [0.4, 0.35, 0.25];

/// Where the machine and the configuration the numbers belong to are
/// recorded with every run.
fn box_record(package: &Path, nproc: usize, pinned_cpu: Option<usize>) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        // Every thread of the run is confined to this CPU (null: the kernel
        // refused, and the run's concurrent phases were left to the host).
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
        ),
        ("cpu", Json::str(cpu)),
        ("commit", Json::str(commit(package))),
        ("server_workers", Json::Num(WORKERS as f64)),
        ("subscribers", Json::Num(WORKERS as f64)),
        (
            "durable_flush_policy",
            Json::str("DurableOptions::default(): sync_writes=false, snapshot_every=256"),
        ),
        ("link", Json::str("loopback (127.0.0.1), not a real link")),
    ])
}

/// The checked-out commit, when the package sits in a git work tree.
fn commit(package: &Path) -> String {
    let git = package.join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|hash| hash.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "not a git checkout".into(),
    }
}

fn write_out(out: &Path, file: &str, doc: &Json) -> Result<(), String> {
    let path = out.join(file);
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// How the host's speed moved over a run's bursts.
fn host_summary(bursts: &[f64]) -> Json {
    Json::obj(vec![
        ("bursts", Json::Num(bursts.len() as f64)),
        ("min", Json::Num(quantile(bursts, 0.0))),
        ("q1", Json::Num(quantile(bursts, 0.25))),
        ("median", Json::Num(median(bursts))),
        ("q3", Json::Num(quantile(bursts, 0.75))),
        ("max", Json::Num(quantile(bursts, 1.0))),
    ])
}

fn report_failures(checks: &Checks) {
    for message in &checks.messages {
        eprintln!("pbs-benchmark: FAILED CHECK: {message}");
    }
}

/// One run of one workload: the result line to print last on stdout, and
/// whether every check passed.
pub fn single_run(
    args: &Args,
    definition: &Definition,
    package: &Path,
) -> Result<(String, bool), String> {
    let name = args
        .workload
        .as_deref()
        .expect("single_run needs a workload");
    let mut w: Workload = workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    if args.smoke {
        w = w.smoke();
    }
    let seconds = args.seconds.unwrap_or(definition.run_seconds);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread is spawned: they all inherit the pin.
    let pinned_cpu = pin::to_one_cpu();
    // No writeback of somebody's dirty pages under the measurement.
    host::settle();
    let out = package.join("out");
    // Scratch state (the durable store) lives under out/, one directory per
    // run, so concurrent runs never share one.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let scratch = out.join(format!(
        "scratch-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let box_record = box_record(package, nproc, pinned_cpu);
    let result = run_passes(args, definition, &w, seconds, &out, &scratch, box_record);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_passes(
    args: &Args,
    definition: &Definition,
    w: &Workload,
    seconds: f64,
    out: &Path,
    scratch: &Path,
    box_record: Json,
) -> Result<(String, bool), String> {
    let io = |e: std::io::Error| format!("{}: {e}", w.name);
    let header = |extra: Vec<(&str, Json)>| {
        let mut fields = vec![
            ("workload", Json::str(w.name)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(args.smoke)),
            ("box", box_record.clone()),
        ];
        fields.extend(extra);
        Json::obj(fields)
    };

    if !args.trace {
        let run = engine::run(w, args.seed, seconds, scratch).map_err(io)?;
        report_failures(&run.checks);
        let metrics = metrics::from_loopback(w, &run);
        let compute: Vec<f64> = run.host_slowdown.iter().map(|s| s.compute).collect();
        let connect: Vec<f64> = run.host_slowdown.iter().map(|s| s.connect).collect();
        write_out(
            out,
            &format!("e2e_{}.json", w.name),
            &header(vec![
                ("measured_s", Json::Num(run.measured_s)),
                ("full_syncs", Json::Num(run.syncs.len() as f64)),
                ("delta_syncs", Json::Num(run.delta_us.len() as f64)),
                ("writes_timed", Json::Num(run.apply_us.len() as f64)),
                ("push_samples", Json::Num(run.push_ms.len() as f64)),
                ("attempted", Json::Num(run.checks.attempted as f64)),
                ("failed", Json::Num(run.checks.failed as f64)),
                ("metrics", metrics::to_json(&metrics)),
                (
                    "raw_wall_clock",
                    metrics::to_json(&metrics::raw_timings(&run)),
                ),
                ("host_compute_slowdown", host_summary(&compute)),
                ("host_connect_slowdown", host_summary(&connect)),
            ]),
        )?;
        let line = metrics::result_line(
            &definition.end_to_end,
            &metrics,
            run.checks.attempted,
            run.checks.failed,
        )?;
        return Ok((line, run.checks.failed == 0));
    }

    // Traced run: loopback pass, replay with spans, replay without.
    let [loopback_s, traced_s, untraced_s] = TRACED_SPLIT.map(|share| share * seconds);
    let loopback = engine::run(w, args.seed, loopback_s, scratch).map_err(io)?;
    let traced = replay::run(w, args.seed, traced_s, scratch, true).map_err(io)?;
    let untraced = replay::run(w, args.seed, untraced_s, scratch, false).map_err(io)?;
    for checks in [&loopback.checks, &traced.checks, &untraced.checks] {
        report_failures(checks);
    }
    let attempted = loopback.checks.attempted + traced.checks.attempted + untraced.checks.attempted;
    let failed = loopback.checks.failed + traced.checks.failed + untraced.checks.failed;

    let (mut metrics, table) = layers::analyse(w, &loopback, &traced, &untraced);
    // End-to-end candidates demoted to the per-layer list are computed from
    // the loopback pass like any other.
    for (name, value) in metrics::from_loopback(w, &loopback) {
        metrics.entry(name).or_insert(value);
    }
    write_out(out, &format!("layers_{}.json", w.name), &header(table))?;
    write_out(
        out,
        &format!("trace_{}.json", w.name),
        &traced.tracer.to_json(TRACE_DUMP_CAP),
    )?;
    let line = metrics::result_line(&definition.per_layer, &metrics, attempted, failed)?;
    Ok((line, failed == 0))
}

/// A child run's parsed result.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Run this same program on one workload in a fresh process.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        command.arg("--smoke");
    }
    // stderr (failed checks) passes through; stdout carries the result.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{workload}: no result line (exit {:?})",
            output.status.code()
        )
    })?;
    let doc = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(name, m)| {
                Some((
                    name.clone(),
                    (
                        m.get("value")?.as_f64()?,
                        m.get("unit")?.as_str()?.to_string(),
                    ),
                ))
            })
            .collect(),
        _ => return Err(format!("{workload}: result line has no metrics")),
    };
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && output.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("  {name:<34} {value:>16.6} {unit}");
}

/// Every workload, untraced then traced; with `--repeat`, the self-check.
pub fn all_workloads(args: &Args, definition: &Definition) -> Result<bool, String> {
    if let Some(repeats) = args.repeat {
        return repeat(args, definition, repeats.max(2));
    }
    let mut all_correct = true;
    for name in &definition.workloads {
        println!("== {name} (seed {}) ==", args.seed);
        for trace in [false, true] {
            let result = child(args, name, args.seed, trace)?;
            all_correct &= result.correct;
            println!(
                " {} pass: correct={} attempted={} failed={} failed_share={:.6}",
                if trace { "traced" } else { "untraced" },
                result.correct,
                result.attempted,
                result.failed,
                result.failed as f64 / result.attempted.max(1) as f64
            );
            let declared = if trace {
                &definition.per_layer
            } else {
                &definition.end_to_end
            };
            for d in declared {
                if let Some((value, unit)) = result.metrics.get(&d.name) {
                    print_metric(&d.name, *value, unit);
                }
            }
        }
    }
    println!(
        "layer tables and span dumps: {}",
        crate::package_dir().join("out").display()
    );
    Ok(all_correct)
}

/// Metrics that must repeat bit for bit when the seed is fixed.
const EXACT_REPEAT: [&str; 3] = ["overhead_x_min", "rounds_mean", "delta_bytes_per_change"];

/// `--repeat N`: N untraced sets on seeds `seed..seed+N`, judged the way
/// the benchmark contract judges them (interquartile range as a share of
/// the median, against the metric's bound), then one more run on the first
/// seed to check the exact-repeat metrics.
fn repeat(args: &Args, definition: &Definition, repeats: usize) -> Result<bool, String> {
    let mut ok = true;
    for name in &definition.workloads {
        println!(
            "== {name}: {repeats} runs, seeds {}..{} ==",
            args.seed,
            args.seed + repeats as u64 - 1
        );
        let mut runs = Vec::new();
        for i in 0..repeats {
            let result = child(args, name, args.seed + i as u64, false)?;
            ok &= result.correct;
            if !result.correct {
                println!(
                    "  run {i}: NOT CORRECT ({} of {} failed)",
                    result.failed, result.attempted
                );
            }
            runs.push(result);
        }
        println!(
            "  {:<26} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for d in &definition.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(&d.name).map(|m| m.0))
                .collect();
            ok &= judge(d, &values);
        }
        let again = child(args, name, args.seed, false)?;
        ok &= again.correct;
        for exact in EXACT_REPEAT {
            // Only what the untraced result line carries can be compared
            // here; a candidate demoted to the per-layer list is skipped.
            let (Some(first), Some(second)) =
                (runs[0].metrics.get(exact), again.metrics.get(exact))
            else {
                continue;
            };
            let same = first.0.to_bits() == second.0.to_bits();
            // The open-loop writer's toggles land in full syncs and deltas
            // at timing-dependent moments; only the writer-free workloads
            // promise bit-identical byte counts.
            let promised = workload::by_name(name).is_some_and(|w| w.writer_period.is_none());
            if !same && promised {
                ok = false;
            }
            println!(
                "  exact repeat of {exact:<24} seed {}: {}",
                args.seed,
                match (same, promised) {
                    (true, _) => "identical",
                    (false, true) => "DIFFERS",
                    (false, false) => "differs (open-loop writer; not promised)",
                }
            );
        }
    }
    Ok(ok)
}

/// Print one metric's spread across runs and say whether it stays within
/// the bound `BENCHMARK.json` records for it.
fn judge(d: &Declared, values: &[f64]) -> bool {
    if values.len() < 2 {
        println!("  {:<26} missing from the runs", d.name);
        return false;
    }
    let mid = median(values);
    let (q1, q3) = quartiles_exclusive(values);
    let spread = (q3 - q1) / mid.abs();
    let bound = d.bound.unwrap_or(0.0);
    // setup_s is held to its bound on medians only, like the contract does.
    let within = spread <= bound || d.name == "setup_s";
    println!(
        "  {:<26} {mid:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {:>5.0}%  {}",
        d.name,
        spread * 100.0,
        bound * 100.0,
        match (within, spread <= bound / 3.0) {
            (true, true) => "agree",
            (true, false) => "agree (above a third of the bound)",
            (false, _) => "DISAGREE",
        }
    );
    within
}

/// `cargo test` drives the whole harness in `--smoke` mode (sizes ÷ 100), so
/// it stays compiling and correct without the long runs.
#[cfg(test)]
mod tests {
    use super::*;

    fn definition() -> Definition {
        Definition::load(&crate::package_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json loads")
    }

    fn smoke(workload: &str, trace: bool, seed: u64) -> (Json, bool) {
        let args = Args {
            workload: Some(workload.to_string()),
            seed,
            seconds: Some(1.0),
            trace,
            smoke: true,
            repeat: None,
        };
        let (line, ok) =
            single_run(&args, &definition(), &crate::package_dir()).expect("smoke run");
        (json::parse(&line).expect("result line is JSON"), ok)
    }

    fn value(result: &Json, metric: &str) -> f64 {
        result
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{metric} missing or not a number"))
    }

    #[test]
    fn benchmark_json_names_exactly_the_programs_workloads() {
        let programmed: Vec<String> = workload::all().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(definition().workloads, programmed);
    }

    #[test]
    fn every_workload_prints_every_declared_metric_and_passes_its_checks() {
        let definition = definition();
        for name in &definition.workloads {
            for trace in [false, true] {
                let (result, ok) = smoke(name, trace, 5);
                assert!(ok, "{name} trace={trace}: a check failed");
                assert_eq!(
                    result.get("correct"),
                    Some(&Json::Bool(true)),
                    "{name} trace={trace}"
                );
                assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
                assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
                let declared = if trace {
                    &definition.per_layer
                } else {
                    &definition.end_to_end
                };
                let Some(Json::Obj(printed)) = result.get("metrics") else {
                    panic!("no metrics object")
                };
                assert_eq!(
                    printed.len(),
                    declared.len(),
                    "{name} trace={trace}: exactly the declared metrics"
                );
                for d in declared {
                    let v = value(&result, &d.name);
                    assert!(v.is_finite(), "{name}: {} = {v}", d.name);
                    // An end-to-end metric that can read 0 cannot be held to a
                    // relative bound.
                    assert!(trace || v > 0.0, "{name}: {} = {v}", d.name);
                }
            }
        }
    }

    #[test]
    fn exact_repeat_metrics_repeat_bit_for_bit_on_a_fixed_seed() {
        let w = workload::by_name("diff_100k_d10k")
            .expect("workload")
            .smoke();
        let run = |seed: u64, tag: &str| {
            let scratch = crate::package_dir().join(format!("out/scratch-test-{tag}"));
            let run = engine::run(&w, seed, 0.5, &scratch).expect("smoke run");
            assert_eq!(run.checks.failed, 0, "{:?}", run.checks.messages);
            metrics::from_loopback(&w, &run)
        };
        let (first, second, other) = (run(11, "a"), run(11, "b"), run(12, "c"));
        for metric in EXACT_REPEAT {
            assert_eq!(
                first[metric].0.to_bits(),
                second[metric].0.to_bits(),
                "{metric}"
            );
        }
        assert_ne!(
            first["overhead_x_min"].0, other["overhead_x_min"].0,
            "another seed is another input"
        );
    }

    #[test]
    fn unknown_workload_is_refused() {
        let args = Args {
            workload: Some("no_such_workload".into()),
            seed: 1,
            seconds: Some(1.0),
            trace: false,
            smoke: true,
            repeat: None,
        };
        let err = single_run(&args, &definition(), &crate::package_dir()).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }
}
