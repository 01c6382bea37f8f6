//! Integration tests of the estimator → parameter-planning → reconciliation
//! pipeline (§6.2): PBS parameterized by the ToW estimate must still meet its
//! success target, and the analytical plan must react to the estimate.

use analysis::optimize_parameters;
use estimator::{Estimator, TowEstimator};
use pbs_core::{Pbs, PbsConfig};
use protocol::{symmetric_difference, Workload};

#[test]
fn estimate_drives_parameter_choice() {
    // A larger d estimate must never shrink the group count.
    let small = Pbs::paper_default().plan(100);
    let large = Pbs::paper_default().plan(10_000);
    assert!(large.groups > small.groups);
    assert_eq!(small.groups, 20);
    assert_eq!(large.groups, 2_000);
}

#[test]
fn end_to_end_with_estimator_meets_target() {
    let workload = Workload {
        set_size: 8_000,
        d: 150,
        universe_bits: 32,
        subset_mode: true,
    };
    let pbs = Pbs::paper_default();
    let mut failures = 0;
    for trial in 0..25u64 {
        let pair = workload.generate(50 + trial);
        let report = pbs.reconcile(&pair.a, &pair.b, trial);
        assert!(report.estimated_d.is_some());
        if !report
            .outcome
            .matches(&symmetric_difference(&pair.a, &pair.b))
        {
            failures += 1;
        }
    }
    assert!(failures <= 2, "{failures} failures out of 25");
}

#[test]
fn underestimated_d_is_repaired_by_extra_rounds() {
    // Force a 4x under-estimate of d. With the round cap lifted, the BCH
    // decode failures and 3-way splits must still converge to the exact
    // difference (correctness is guaranteed by the checksum, §2.2.3).
    let workload = Workload {
        set_size: 6_000,
        d: 400,
        universe_bits: 32,
        subset_mode: true,
    };
    let pair = workload.generate(77);
    let pbs = Pbs::new(PbsConfig::paper_default().unlimited_rounds());
    let report = pbs.reconcile_with_known_d(&pair.a, &pair.b, 100, 5);
    assert!(report.outcome.claimed_success);
    assert!(report
        .outcome
        .matches(&symmetric_difference(&pair.a, &pair.b)));
    assert!(report.decode_failures > 0, "expected BCH decode failures");
}

#[test]
fn tow_estimate_feeds_optimizer_consistently() {
    // Build a real ToW estimate and check the optimizer accepts it and
    // returns parameters satisfying the bound.
    let workload = Workload {
        set_size: 10_000,
        d: 500,
        universe_bits: 32,
        subset_mode: true,
    };
    let pair = workload.generate(3);
    let mut ea = TowEstimator::paper_default(9);
    let mut eb = TowEstimator::paper_default(9);
    for &x in &pair.a {
        ea.insert(x);
    }
    for &x in &pair.b {
        eb.insert(x);
    }
    let d_param = ea.conservative_estimate(&eb);
    assert!(d_param >= 400, "γ-inflated estimate {d_param} too low");
    let opt = optimize_parameters(d_param, 5, 3, 0.99).expect("a feasible plan");
    assert!(opt.lower_bound >= 0.99);
    assert!(opt.t >= 5);
}
