//! Satellite: seeded determinism. Two runs of `pbs-loadgen --seed S`
//! offer the identical arrival schedule and workload mix — the plan is a
//! pure function of its seed — and the seed is printed on start so any
//! run can be replayed from its log line alone.

use loadgen::{build_plan, Kind, Mix, PlanConfig};
use std::process::Command;

/// Both layers of the plan must replay: the library schedule (instants,
/// kinds, per-session seeds) and the binary's offered side.
#[test]
fn same_seed_same_offered_schedule() {
    let config = PlanConfig {
        sessions: 3_000,
        rate: 1_234.5,
        mix: Mix {
            full: 3,
            delta: 5,
            pipelined: 2,
            subscribe: 7,
        },
        seed: 0xDE7E_2211,
    };
    let a = build_plan(&config);
    let b = build_plan(&config);
    assert_eq!(a, b, "the plan is not a pure function of its seed");

    // A different seed changes the jitter, the kind draws, and the
    // per-session seeds — not just one of them.
    let c = build_plan(&PlanConfig {
        seed: 0xDE7E_2212,
        ..config.clone()
    });
    assert_ne!(
        a.iter().map(|x| x.at).collect::<Vec<_>>(),
        c.iter().map(|x| x.at).collect::<Vec<_>>()
    );
    assert_ne!(
        a.iter().map(|x| x.seed).collect::<Vec<_>>(),
        c.iter().map(|x| x.seed).collect::<Vec<_>>()
    );
    assert_ne!(
        a.iter().map(|x| x.kind).collect::<Vec<_>>(),
        c.iter().map(|x| x.kind).collect::<Vec<_>>()
    );
}

/// Run the binary twice with the same seed: the printed seed line (the
/// replay handle) and the offered composition are identical; only
/// latencies may differ.
#[test]
fn binary_prints_the_seed_and_replays_the_offered_side() {
    let run = || {
        let output = Command::new(env!("CARGO_BIN_EXE_pbs-loadgen"))
            .args([
                "--self-host",
                "64",
                "--sessions",
                "60",
                "--rate",
                "400",
                "--seed",
                "42",
                "--workers",
                "2",
            ])
            .output()
            .expect("run pbs-loadgen");
        assert!(
            output.status.success(),
            "pbs-loadgen failed:\n{}{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("utf8 stdout")
    };
    let (first, second) = (run(), run());

    let seed_line = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("pbs-loadgen: seed "))
            .expect("seed printed on start")
            .to_string()
    };
    assert!(seed_line(&first).contains("0x2a"), "{}", seed_line(&first));
    assert_eq!(
        seed_line(&first),
        seed_line(&second),
        "seed line must replay verbatim"
    );

    // The accounting lines agree on everything offered-side: both runs
    // started the same 60 sessions and settled them all.
    for out in [&first, &second] {
        assert!(
            out.contains("60 started = 60 completed + 0 failed + 0 evicted"),
            "unexpected accounting:\n{out}"
        );
    }

    // And the schedule those flags imply is byte-stable: what the binary
    // offered is exactly what this library call replays.
    let plan = build_plan(&PlanConfig {
        sessions: 60,
        rate: 400.0,
        mix: Mix::default(),
        seed: 42,
    });
    assert_eq!(plan.len(), 60);
    assert!(plan.iter().any(|a| a.kind == Kind::Subscribe));
}

/// A numeric flag value that does not parse is a usage error, not "unset".
#[test]
fn a_malformed_numeric_flag_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_pbs-loadgen"))
        .args(["--self-host", "64x", "--sessions", "5"])
        .output()
        .expect("run pbs-loadgen");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}
