//! What each registered experiment computes. The measured ones run seeded
//! workloads (the seeds are the retired per-figure binaries', so a cell
//! reads what it read there); the analytical ones tabulate `analysis`.

use crate::{run_point, Scale, Table};
use analysis::{
    binomial_pmf, exception_probabilities, expected_round_shares, group_success_probability,
    optimize_parameters, optimize_parameters_with_model, overall_success_lower_bound, SuccessModel,
    PAPER_CANDIDATE_N,
};
use ddigest::{DifferenceDigest, MinWiseEstimator, StrataEstimator};
use estimator::{Estimator, TowEstimator, RECOMMENDED_INFLATION};
use graphene::Graphene;
use pbs_core::{Pbs, PbsConfig, PbsReport};
use pinsketch::{PinSketch, PinSketchWp};
use protocol::{symmetric_difference, theoretical_minimum_bytes, Reconciler, Workload};

/// PinSketch decodes in O(d²): the paper stopped it at d = 30 000, this
/// harness at 1 000 (0.8 s a trial there).
const PINSKETCH_MAX_D: usize = 1_000;

/// A scheme of a comparison figure, as data.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    Pbs,
    /// PBS at this δ (Figure 4 sweeps it; the seed follows δ, not d).
    PbsDelta(usize),
    PinSketch,
    PinSketchWp,
    DDigest,
    Graphene,
}

impl Scheme {
    fn build(self, p0: f64) -> Box<dyn Reconciler> {
        let pbs = PbsConfig::paper_default().with_target_success(p0);
        match self {
            Scheme::Pbs => Box::new(Pbs::new(pbs)),
            Scheme::PbsDelta(delta) => Box::new(Pbs::new(pbs.with_delta(delta))),
            Scheme::PinSketch => Box::new(PinSketch::default()),
            Scheme::PinSketchWp => Box::new(PinSketchWp::default()),
            Scheme::DDigest => Box::new(DifferenceDigest::default()),
            Scheme::Graphene => Box::new(Graphene::default()),
        }
    }
}

type Rows = Vec<(String, Vec<f64>)>;

fn workload(set_size: usize, d: usize) -> Workload {
    Workload {
        set_size,
        d,
        universe_bits: 32,
        subset_mode: true,
    }
}

fn pbs_uncapped() -> Pbs {
    Pbs::new(PbsConfig::paper_default().unlimited_rounds())
}

/// Figures 1–4: every scheme at every `d`, through [`run_point`].
fn compare(scale: &Scale, p0: f64, seed: u64, schemes: &[Scheme]) -> Vec<Table> {
    let mut rows = Rows::new();
    for &d in scale.d_values {
        for &scheme in schemes {
            if matches!(scheme, Scheme::PinSketch) && d > PINSKETCH_MAX_D {
                continue;
            }
            let (label, salt) = match scheme {
                Scheme::PbsDelta(delta) => (Some(format!("PBS δ={delta}")), delta),
                _ => (None, d),
            };
            let (workload, seed) = (workload(scale.set_size, d), seed + salt as u64);
            let p = run_point(&*scheme.build(p0), &workload, scale.trials, seed);
            let label = label.unwrap_or_else(|| p.scheme.to_string());
            let cells = vec![
                d as f64,
                p.success_rate,
                p.mean_comm_kb,
                p.comm_over_minimum,
                p.mean_encode_s,
                p.mean_decode_s,
                p.mean_rounds,
            ];
            rows.push((label, cells));
        }
    }
    let header = "scheme | d | success:4 | comm (KB):3 | × minimum:2 | encode (s):s | \
                  decode (s):s | rounds:2";
    vec![Table::new("", header, rows)]
}

pub(crate) fn fig1(scale: &Scale) -> Vec<Table> {
    let schemes = [Scheme::Pbs, Scheme::PinSketch, Scheme::DDigest];
    compare(scale, 0.99, 0xF161, &schemes)
}

pub(crate) fn fig2(scale: &Scale) -> Vec<Table> {
    compare(
        scale,
        239.0 / 240.0,
        0xF162,
        &[Scheme::Pbs, Scheme::Graphene],
    )
}

pub(crate) fn fig3(scale: &Scale) -> Vec<Table> {
    compare(scale, 0.99, 0xF163, &[Scheme::Pbs, Scheme::PinSketchWp])
}

pub(crate) fn fig4(scale: &Scale) -> Vec<Table> {
    let deltas = [3, 5, 8, 12, 16, 21, 30].map(Scheme::PbsDelta);
    compare(scale, 0.99, 0xF164, &deltas)
}

/// Re-price a PBS run for a larger signature width: per Formula (1) the
/// per-group cost is `t·log n + δ_i·log n + δ_i·log|U| + log|U|`; only the
/// last two terms scale with the signature width — d XOR sums, (groups +
/// splits) checksums and d echoed values are the element-width words the
/// transcript recorded at 32 bits.
fn pbs_comm_bytes(report: &PbsReport, universe_bits: u64) -> f64 {
    let d = report.outcome.recovered.len() as u64;
    let base32 = report.outcome.comm.total_bytes() as f64;
    let element_words = d + report.groups as u64 + report.decode_failures as u64 * 3;
    base32 - (element_words * 32) as f64 / 8.0 + (element_words * universe_bits) as f64 / 8.0
}

pub(crate) fn fig5(scale: &Scale) -> Vec<Table> {
    let universe_bits = 256u64;
    let mut rows = Rows::new();
    for &d in scale.d_values {
        let workload = workload(scale.set_size, d);
        let minimum = theoretical_minimum_bytes(d, universe_bits as u32);
        let (mut pbs_total, mut wp_total) = (0.0, 0.0);
        for trial in 0..scale.trials {
            let pair = workload.generate(0xF165 + d as u64 + trial);
            let (a, b) = (&pair.a, &pair.b);
            let pbs = Pbs::paper_default().reconcile_with_known_d(a, b, d.max(1), trial);
            pbs_total += pbs_comm_bytes(&pbs, universe_bits);
            let wp = PinSketchWp::default().reconcile_with_known_d(a, b, d.max(1), trial);
            // Every PinSketch/WP word is log|U| bits wide.
            wp_total += wp.comm.total_bytes() as f64 * universe_bits as f64 / 32.0;
        }
        for (scheme, total) in [("PBS", pbs_total), ("PinSketch/WP", wp_total)] {
            let kb = total / scale.trials as f64 / 1000.0;
            let cells = vec![d as f64, kb, kb * 1000.0 / minimum];
            rows.push((scheme.to_string(), cells));
        }
    }
    let caption = "32-bit runs re-priced for 256-bit signatures";
    let header = "scheme | d | comm (KB):3 | × minimum:2";
    vec![Table::new(caption, header, rows)]
}

pub(crate) fn table1(_: &Scale) -> Vec<Table> {
    let (d, delta, g, r, p0) = (1_000usize, 5usize, 200usize, 3u32, 0.99);
    let (mut grid, mut optimum) = (Rows::new(), Rows::new());
    for model in [
        SuccessModel::SplitAware,
        SuccessModel::PessimisticTruncation,
    ] {
        for t in 8..=17usize {
            let bound = |&n: &usize| {
                let alpha = group_success_probability(n, t, d, g, r, model);
                overall_success_lower_bound(alpha, g).max(0.0) * 100.0
            };
            let bounds = PAPER_CANDIDATE_N.iter().map(bound).collect();
            grid.push((format!("{model:?} · {t}"), bounds));
        }
        let opt = optimize_parameters_with_model(d, delta, r, p0, model)
            .expect("both models have a feasible cell at p0 = 0.99");
        let bound = opt.lower_bound * 100.0;
        let cells = vec![opt.n as f64, opt.t as f64, opt.objective_bits, bound];
        optimum.push((format!("{model:?}"), cells));
    }
    let ns = PAPER_CANDIDATE_N.map(|n| format!(" | n = {n}:*"));
    let caption =
        format!("success lower bound, d = {d}, δ = {delta}, g = {g}, r = {r}; * marks ≥ p0 = {p0}");
    let optimum_header = "model | optimal n | optimal t | objective (bits) | bound (%):3";
    vec![
        Table::new(&caption, &format!("model · t{}", ns.concat()), grid),
        Table::new("the cell the optimizer picks", optimum_header, optimum),
    ]
}

pub(crate) fn table2(scale: &Scale) -> Vec<Table> {
    let pbs = pbs_uncapped();
    let mut rows = Rows::new();
    for &d in scale.d_values {
        let workload = workload(scale.set_size, d);
        // Trials that took 1, 2, 3, ≥ 4 rounds; rounds in total; successes.
        let mut counts = [0u64; 6];
        for trial in 0..scale.trials {
            let pair = workload.generate(0x7AB2 + d as u64 * 31 + trial);
            let report = pbs.reconcile_with_known_d(&pair.a, &pair.b, d.max(1), trial);
            let truth = symmetric_difference(&pair.a, &pair.b);
            let r = report.outcome.rounds;
            counts[(r.clamp(1, 4) as usize) - 1] += 1;
            counts[4] += r as u64;
            counts[5] += report.outcome.matches(&truth) as u64;
        }
        let shares = counts.map(|c| c as f64 / scale.trials as f64);
        rows.push((d.to_string(), shares.to_vec()));
    }
    let header = "d | r=1:3 | r=2:3 | r=3:3 | r>=4:3 | mean r:2 | success:3";
    vec![Table::new("rounds uncapped", header, rows)]
}

pub(crate) fn section2(_: &Scale) -> Vec<Table> {
    let cases = [(5, 255), (5, 127), (5, 511), (8, 255), (13, 127), (3, 63)];
    let row = |&(d, n): &(usize, usize)| {
        let e = exception_probabilities(d, n);
        let cells = vec![e.ideal, e.type_i, e.type_ii, e.type_ii_undetected];
        (format!("{d}, {n}"), cells)
    };
    let header = "d, n | ideal:6 | type I:6 | type II:e | type II undetected:e";
    let rows = cases.iter().map(row).collect();
    vec![Table::new("balls into bins, exact", header, rows)]
}

pub(crate) fn section5_piecewise(scale: &Scale) -> Vec<Table> {
    let (n, t, d, g) = (127usize, 13usize, 1_000usize, 200usize);
    let shares = expected_round_shares(n, t, d, g, 4);

    let workload = workload(scale.set_size, d);
    let pbs = pbs_uncapped();
    let mut per_round = [0f64; 6];
    for trial in 0..scale.trials {
        let pair = workload.generate(0x5EC5 + trial);
        let report = pbs.reconcile_with_known_d(&pair.a, &pair.b, d, trial);
        for (i, &count) in report.per_round_recovered.iter().enumerate().take(6) {
            per_round[i] += count as f64;
        }
    }
    let total: f64 = per_round.iter().sum();

    let round = |i: usize| {
        let cells = vec![shares[i], per_round[i] / total.max(1.0)];
        ((i + 1).to_string(), cells)
    };
    let mut rows: Rows = (0..4).map(round).collect();
    rows.push(("residual".to_string(), vec![shares[4], f64::NAN]));
    let caption = format!(
        "analytical at n = {n}, t = {t}, d = {d}, g = {g}; measured under the planned (n, t)"
    );
    let header = "round | analytical:a | measured:a";
    vec![Table::new(&caption, header, rows)]
}

pub(crate) fn section5_r_sweep(_: &Scale) -> Vec<Table> {
    let (d, delta, p0, universe_bits) = (1_000usize, 5usize, 0.99, 32u32);
    let row = |r: u32| {
        let opt = optimize_parameters(d, delta, r, p0).expect("the candidate grid reaches r = 1");
        let total = opt.first_round_bits_per_group(delta, universe_bits);
        let cells = vec![opt.n as f64, opt.t as f64, opt.objective_bits, total];
        (r.to_string(), cells)
    };
    let header = "r | n | t | objective (bits) | per-group total (bits)";
    let rows = (1..=4).map(row).collect();
    vec![Table::new("d = 1000, δ = 5, p0 = 0.99", header, rows)]
}

/// `(name, the wire size in bytes of `proto` after Alice's set went in)`.
fn wire_size<E: Estimator>(name: &str, mut proto: E, a: &[u64]) -> (String, Vec<f64>) {
    proto.insert_slice(a);
    let bytes = proto.wire_bits().div_ceil(8);
    (name.to_string(), vec![a.len() as f64, bytes as f64])
}

pub(crate) fn section6(scale: &Scale) -> Vec<Table> {
    let trials = scale.trials as f64;
    let mut accuracy = Rows::new();
    for &d in scale.d_values {
        let workload = workload(scale.set_size, d);
        let (mut sum, mut covered) = (0.0, 0u64);
        for trial in 0..scale.trials {
            let pair = workload.generate(0xE571 + d as u64 + trial * 7);
            let mut ea = TowEstimator::paper_default(trial);
            let mut eb = ea.clone();
            ea.insert_slice(&pair.a);
            eb.insert_slice(&pair.b);
            let est = ea.estimate(&eb);
            sum += est;
            covered += ((d as f64) <= est * RECOMMENDED_INFLATION) as u64;
        }
        let mean = sum / trials;
        let (bias, coverage) = ((mean - d as f64) / d as f64, covered as f64 / trials);
        let cells = vec![mean, bias, coverage, mean * RECOMMENDED_INFLATION];
        accuracy.push((d.to_string(), cells));
    }

    let a = workload(scale.set_size, 100).generate(7).a;
    let sizes = vec![
        wire_size("ToW (128 sketches)", TowEstimator::paper_default(1), &a),
        wire_size("Strata (32 x 80 cells)", StrataEstimator::new(32, 1), &a),
        wire_size("Min-wise (128 hashes)", MinWiseEstimator::new(128, 1), &a),
    ];
    let accuracy_header = "d | mean d̂:1 | rel. bias:4 | P[d ≤ 1.38·d̂]:3 | mean 1.38·d̂:1";
    let sizes_caption = "estimator sizes on the wire (Appendix B)";
    vec![
        Table::new("ToW accuracy, ℓ = 128", accuracy_header, accuracy),
        Table::new(sizes_caption, "estimator | set size | bytes", sizes),
    ]
}

pub(crate) fn ablation_checksum(scale: &Scale) -> Vec<Table> {
    let pbs = pbs_uncapped();
    let mut rows = Rows::new();
    for &d in scale.d_values {
        let workload = workload(scale.set_size, d);
        let (mut multi_round, mut bch_failures, mut fakes, mut mismatches) = (0, 0, 0, 0);
        for trial in 0..scale.trials {
            let pair = workload.generate(0xAB1A + d as u64 * 13 + trial);
            let report = pbs.reconcile_with_known_d(&pair.a, &pair.b, d.max(1), trial);
            multi_round += (report.outcome.rounds > 1) as u64;
            bch_failures += report.decode_failures as u64;
            fakes += report.fakes_rejected;
            // A checksum that verified over a wrong difference: the false
            // verification the paper bounds at ~1e-12.
            let truth = symmetric_difference(&pair.a, &pair.b);
            let verified = report.outcome.claimed_success;
            mismatches += (verified && !report.outcome.matches(&truth)) as u64;
        }
        let counts = [scale.trials, multi_round, bch_failures, fakes, mismatches];
        rows.push((d.to_string(), counts.map(|c| c as f64).to_vec()));
    }
    let header = "d | trials | multi-round | bch failures | fakes caught | mismatches";
    vec![Table::new("rounds uncapped", header, rows)]
}

/// P(some sub-group exceeds t | the parent group has x > t elements and is
/// split uniformly into `ways` sub-groups), averaged over the conditional
/// distribution of x for X ~ Binomial(d, 1/g). The per-sub-group overflow is
/// the binomial marginal, combined by the union bound (tight here: two
/// sub-groups cannot both overflow while x ≤ 2t).
fn overflow_after_split(d: usize, g: usize, t: usize, ways: usize) -> f64 {
    let p = 1.0 / g as f64;
    let support = t + 1..=(t + 80).min(d);
    let tail: f64 = support.clone().map(|x| binomial_pmf(d, x, p)).sum();
    if tail <= 0.0 {
        return 0.0;
    }
    let overflow = |x: usize| {
        let per_group = (t + 1..=x).map(|k| binomial_pmf(x, k, 1.0 / ways as f64));
        let some_overflow = (per_group.sum::<f64>() * ways as f64).min(1.0);
        binomial_pmf(d, x, p) / tail * some_overflow
    };
    support.map(overflow).sum()
}

/// §3.2: the conditional probability that a sub-group still exceeds the
/// capacity after a 2-, 3- or 4-way split. The two-way figure matches the
/// paper's ≈ 1.2e-3 at t = 13; the three-way one reads 1.3e-5 where the
/// paper prints ≈ 9.5e-10 — an open finding, not a reproduction.
pub(crate) fn ablation_split(_: &Scale) -> Vec<Table> {
    let (d, g) = (1_000usize, 200usize);
    let row = |&t: &usize| {
        let ways = (2..=4).map(|ways| overflow_after_split(d, g, t, ways));
        (t.to_string(), ways.collect())
    };
    let caption = "P(some sub-group still exceeds t | parent exceeded t), d = 1000, g = 200";
    let rows = [10usize, 13, 16].iter().map(row).collect();
    vec![Table::new(caption, "t | 2-way:e | 3-way:e | 4-way:e", rows)]
}
