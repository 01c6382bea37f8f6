//! What each registered experiment computes. The measured ones run seeded
//! workloads (the seeds are the retired per-figure binaries', so a cell
//! reads what it read there); the analytical ones tabulate `analysis`.

use crate::{run_point, Scale, Table};
use analysis::{
    binomial_pmf, exception_probabilities, expected_round_shares, group_count, optimize_parameters,
    predict, sweep_parameter_grid, OptimalParams, DEFAULT_DELTA, DEFAULT_TARGET_ROUNDS,
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

/// Table 1's setting: d = 1000 at the paper's δ = 5, r = 3, p0 = 0.99.
const TABLE1: (usize, f64) = (1_000, 0.99);

/// The four corners of Table 1's (n, t) grid, beside its optimum.
const TABLE1_CORNERS: [(usize, usize); 4] = [(63, 8), (63, 17), (2047, 8), (2047, 17)];

pub(crate) fn table1(_: &Scale) -> Vec<Table> {
    let ((d, p0), delta, r) = (TABLE1, DEFAULT_DELTA, DEFAULT_TARGET_ROUNDS);
    let cells = sweep_parameter_grid(d, delta, r, p0);
    let bound = |t: usize| {
        let at = |&n: &usize| cells.iter().find(|c| (c.n, c.t) == (n, t));
        let percent = |n| at(n).map_or(f64::NAN, |c| c.lower_bound.max(0.0) * 100.0);
        PAPER_CANDIDATE_N.iter().map(percent).collect()
    };
    let grid = (8..=17usize).map(|t| (t.to_string(), bound(t))).collect();
    let opt = optimize_parameters(d, delta, r, p0).expect("Table 1 has a feasible cell");
    let cells = vec![
        opt.n as f64,
        opt.t as f64,
        opt.objective_bits,
        opt.lower_bound * 100.0,
    ];
    let ns = PAPER_CANDIDATE_N.map(|n| format!(" | n = {n}:*"));
    let g = group_count(d, delta);
    let caption =
        format!("success lower bound, d = {d}, δ = {delta}, g = {g}, r = {r}; * marks ≥ p0 = {p0}");
    let optimum_header = "planner | optimal n | optimal t | objective (bits) | bound (%):3";
    vec![
        Table::new(&caption, &format!("t{}", ns.concat()), grid),
        Table::new(
            "the cell the optimizer picks",
            optimum_header,
            vec![("optimizer".to_string(), cells)],
        ),
    ]
}

/// `(label, d, plan)` of every point of `table2`'s grid: the planned cell
/// at each `d`, then Table 1's corners.
fn table2_points(d_values: &[usize]) -> Vec<(String, usize, OptimalParams)> {
    let planned = |&d: &usize| ("planned".to_string(), d, pbs_uncapped().plan(d));
    let (d, p0) = TABLE1;
    let grid = sweep_parameter_grid(d, DEFAULT_DELTA, DEFAULT_TARGET_ROUNDS, p0);
    let corner = |&(n, t): &(usize, usize)| {
        let cell = grid.iter().find(|c| (c.n, c.t) == (n, t));
        let cell = cell.expect("the corners are cells of the planner's grid");
        let params = OptimalParams {
            n,
            m: (n + 1).ilog2(),
            t,
            groups: group_count(d, DEFAULT_DELTA),
            lower_bound: cell.lower_bound,
            objective_bits: cell.objective_bits,
        };
        (format!("corner ({n}, {t})"), d, params)
    };
    let planned = d_values.iter().map(planned);
    planned.chain(TABLE1_CORNERS.iter().map(corner)).collect()
}

/// Mean and sample standard deviation.
fn mean_sd(samples: &[f64]) -> (f64, f64) {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let square = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
    (mean, (square / (n - 1.0).max(1.0)).sqrt())
}

/// Appendix J.1's rounds, held to `analysis`: at each point of the grid,
/// `trials` seeded runs with the rounds uncapped. One run gives the round it
/// finished in — the first r rounds do not depend on the cap — so the
/// round CDF and success within r = 3 come from the same runs, beside
/// `analysis::predict`'s; so do the mean Formula (1) bytes.
pub(crate) fn table2(scale: &Scale) -> Vec<Table> {
    let pbs = pbs_uncapped();
    let r = DEFAULT_TARGET_ROUNDS;
    let mut rows = Rows::new();
    for (point, (label, d, params)) in table2_points(scale.d_values).into_iter().enumerate() {
        let workload = workload(scale.set_size.max(2 * d), d);
        let mut done_within = vec![0u64; r as usize];
        let (mut rounds, mut bytes) = (0u64, Vec::with_capacity(scale.trials as usize));
        for trial in 0..scale.trials {
            let pair = workload.generate(((0x7AB2 + point as u64) << 32) | trial);
            let report = pbs.reconcile_with_plan(&pair.a, &pair.b, d, params, trial);
            let truth = symmetric_difference(&pair.a, &pair.b);
            let finished = report.outcome.claimed_success && report.outcome.matches(&truth);
            let took = report.outcome.rounds;
            for (k, done) in done_within.iter_mut().enumerate() {
                *done += (finished && took <= k as u32 + 1) as u64;
            }
            rounds += took as u64;
            bytes.push(report.outcome.comm.total_bytes() as f64);
        }
        let predicted = predict(params.n, params.t, d, params.groups, r, 32);
        let trials = scale.trials as f64;
        let (mean_bytes, sd_bytes) = mean_sd(&bytes);
        let mut cells = vec![d as f64, params.n as f64, params.t as f64, trials];
        for (k, &done) in done_within.iter().enumerate() {
            cells.extend([done as f64 / trials, predicted.done_within[k]]);
        }
        cells.extend([
            rounds as f64 / trials,
            mean_bytes,
            sd_bytes,
            predicted.mean_bits / 8.0,
        ]);
        rows.push((label, cells));
    }
    let header = "plan | d | n | t | trials | P(R ≤ 1):4 | predicted P(R ≤ 1):4 | \
                  P(R ≤ 2):4 | predicted P(R ≤ 2):4 | P(R ≤ 3):4 | predicted P(R ≤ 3):4 | \
                  mean r:2 | bytes:1 | sd bytes:1 | predicted bytes:1";
    let caption = "rounds uncapped; P(R ≤ k): verified and exact within k rounds";
    vec![Table::new(caption, header, rows)]
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

/// §5.3's round shares: Appendix G at the paper's (127, 13), and at the
/// plan the runs use beside the shares the runs measured (each run's share
/// of its d, averaged), held to the prediction by a normal interval.
pub(crate) fn section5_piecewise(scale: &Scale) -> Vec<Table> {
    let ((d, _), rounds) = (TABLE1, 4u32);
    let g = group_count(d, DEFAULT_DELTA);
    let paper = expected_round_shares(127, 13, d, g, rounds);
    let pbs = pbs_uncapped();
    let plan = pbs.plan(d);
    let planned = expected_round_shares(plan.n, plan.t, d, g, rounds);

    let workload = workload(scale.set_size, d);
    let mut shares = vec![Vec::with_capacity(scale.trials as usize); rounds as usize];
    for trial in 0..scale.trials {
        let pair = workload.generate(0x5EC5 + trial);
        let report = pbs.reconcile_with_known_d(&pair.a, &pair.b, d, trial);
        for (k, share) in shares.iter_mut().enumerate() {
            let recovered = report.per_round_recovered.get(k).copied().unwrap_or(0);
            share.push(recovered as f64 / d as f64);
        }
    }
    let trials = scale.trials as f64;
    let round = |k: usize| {
        let (mean, sd) = mean_sd(&shares[k]);
        let cells = vec![trials, paper[k], planned[k], mean, sd];
        ((k + 1).to_string(), cells)
    };
    let mut rows: Rows = (0..rounds as usize).map(round).collect();
    let residual = rounds as usize;
    let nan = f64::NAN;
    rows.push((
        "residual".to_string(),
        vec![nan, paper[residual], planned[residual], nan, nan],
    ));
    let (n, t) = (plan.n, plan.t);
    let caption = format!(
        "Appendix G at d = {d}, g = {g}: the paper's (127, 13), and the planned ({n}, {t}) the runs use"
    );
    let header = "round | trials | analytical:a | planned:a | measured:a | sd:a";
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

/// How many elements `section6`'s sets share beyond the difference: ToW's
/// counters cancel on `A ∩ B`, so the estimate does not depend on it.
const SHARED: usize = 16;

pub(crate) fn section6(scale: &Scale) -> Vec<Table> {
    let trials = scale.trials as f64;
    let mut accuracy = Rows::new();
    for &d in scale.d_values {
        let workload = workload(d + SHARED, d);
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
        let cells = vec![mean, bias, coverage, mean * RECOMMENDED_INFLATION, trials];
        accuracy.push((d.to_string(), cells));
    }

    // A counter is ⌈log₂(2|A| + 1)⌉ bits wide, so the sizes are the paper's
    // only at its |A|.
    let a = workload(scale.set_size, 100).generate(7).a;
    let sizes = vec![
        wire_size("ToW (128 sketches)", TowEstimator::paper_default(1), &a),
        wire_size("Strata (32 x 80 cells)", StrataEstimator::new(32, 1), &a),
        wire_size("Min-wise (128 hashes)", MinWiseEstimator::new(128, 1), &a),
    ];
    let accuracy_header = "d | mean d̂:1 | rel. bias:4 | P[d ≤ 1.38·d̂]:4 | mean 1.38·d̂:1 | trials";
    let accuracy_caption = format!("ToW accuracy, ℓ = 128, |A ∩ B| = {SHARED}");
    let sizes_caption = "estimator sizes on the wire (Appendix B)";
    vec![
        Table::new(&accuracy_caption, accuracy_header, accuracy),
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
