//! The paper's evaluation as one registry of experiments.
//!
//! Every figure and table this repository regenerates — §8's scheme
//! comparisons, the analytical tables of §2, §5, §6 and Appendices H/J, two
//! ablations — is declared once in [`REGISTRY`]: name, paper section, title,
//! quick and paper [`Scale`], the function that computes its [`Table`]s, and
//! the paper's own values as [`Claim`]s. The `reproduce` binary writes one
//! Markdown document with the paper's value beside each measured one;
//! `docs/REPRODUCTION.md` is its committed output at quick scale.
//!
//! Seeds are fixed, so everything but wall-clock time is deterministic: a
//! claim over a deterministic column that reads ✗ at quick scale is an entry
//! of [`OPEN_FINDINGS`], which a unit test and `reproduce`'s exit code hold
//! equal to what the claims evaluate to.

#![warn(missing_docs)]

mod experiments;

use analysis::interval::{normal_mean, wilson, Interval, FAMILY_CONFIDENCE};
use protocol::{symmetric_difference, Reconciler, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The workload an experiment's sweep runs on; an analytical experiment
/// takes `ANALYTICAL` and reads none of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Cardinality of Alice's set.
    pub set_size: usize,
    /// Number of independent (A, B) instances per point.
    pub trials: u64,
    /// The set-difference cardinalities to sweep.
    pub d_values: &'static [usize],
}

const fn scale(set_size: usize, trials: u64, d_values: &'static [usize]) -> Scale {
    Scale {
        set_size,
        trials,
        d_values,
    }
}

/// The scale of an experiment that only tabulates `analysis`.
pub(crate) const ANALYTICAL: Scale = scale(0, 0, &[]);

/// The reduced, same-shape scale every sweep defaults to.
const fn quick(trials: u64) -> Scale {
    scale(50_000, trials, &[10, 100, 1_000])
}

/// The paper's §8 scale (hours: PinSketch alone is quadratic in d).
const PAPER: Scale = scale(1_000_000, 100, &[10, 100, 1_000, 10_000, 100_000]);

/// Aggregated measurements for one scheme at one `d` value.
#[derive(Debug, Clone)]
pub(crate) struct ExperimentPoint {
    /// Scheme name.
    pub scheme: &'static str,
    /// Fraction of trials in which the recovered difference matched ground
    /// truth exactly (the paper's "success rate").
    pub success_rate: f64,
    /// Mean total communication in kilobytes.
    pub mean_comm_kb: f64,
    /// Mean encode time in seconds.
    pub mean_encode_s: f64,
    /// Mean decode time in seconds.
    pub mean_decode_s: f64,
    /// Mean number of protocol rounds.
    pub mean_rounds: f64,
    /// Communication overhead relative to the theoretical minimum
    /// `d·log|U|`.
    pub comm_over_minimum: f64,
}

/// Run `scheme` on `trials` independent instances of the workload and
/// aggregate the paper's metrics.
pub(crate) fn run_point(
    scheme: &dyn Reconciler,
    workload: &Workload,
    trials: u64,
    base_seed: u64,
) -> ExperimentPoint {
    let mut successes = 0u64;
    let mut comm_bytes = 0f64;
    let mut encode = Duration::ZERO;
    let mut decode = Duration::ZERO;
    let mut rounds = 0f64;
    for trial in 0..trials {
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(trial);
        let pair = workload.generate(seed);
        let outcome = scheme.reconcile(&pair.a, &pair.b, seed ^ 0x5EED);
        let truth = symmetric_difference(&pair.a, &pair.b);
        if outcome.matches(&truth) {
            successes += 1;
        }
        comm_bytes += outcome.comm.total_bytes() as f64;
        encode += outcome.timing.encode;
        decode += outcome.timing.decode;
        rounds += outcome.rounds as f64;
    }
    let t = trials as f64;
    let mean_comm = comm_bytes / t;
    let minimum = protocol::theoretical_minimum_bytes(workload.d.max(1), workload.universe_bits);
    ExperimentPoint {
        scheme: scheme.name(),
        success_rate: successes as f64 / t,
        mean_comm_kb: mean_comm / 1000.0,
        mean_encode_s: encode.as_secs_f64() / t,
        mean_decode_s: decode.as_secs_f64() / t,
        mean_rounds: rounds / t,
        comm_over_minimum: mean_comm / minimum,
    }
}

/// One column of a [`Table`]: its name and how its numbers print.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The header; unique across one experiment's tables.
    pub name: String,
    /// A digit: that many decimals. `e`: `1.234e-5`. `a`: six decimals, or
    /// `e` below 1e-3. `*`: a percentage, starred from 99 up (Table 1's p0).
    /// `s`: seconds of wall-clock time — a claim that reads one is shown
    /// and never asserted.
    pub format: char,
}

impl Column {
    fn show(&self, v: f64) -> String {
        let sci = self.format == 'e' || (self.format == 'a' && v > 0.0 && v < 1e-3);
        match self.format {
            _ if v.is_nan() => "—".to_string(),
            _ if sci => format!("{v:.3e}"),
            'a' | 's' => format!("{v:.6}"),
            '*' => format!("{v:.1}%{}", if v >= 99.0 { "*" } else { "" }),
            digit => format!("{v:.*}", digit.to_digit(10).unwrap_or(0) as usize),
        }
    }
}

/// One table of an experiment's output. The first column holds each row's
/// label — its series: a scheme, a model, a round — and the rest numbers;
/// within a series a row is identified by its first number (the point: `d`).
#[derive(Debug, Clone)]
pub struct Table {
    /// What the table holds beyond the experiment's title (may be empty).
    pub caption: String,
    /// The columns, the label column first.
    pub columns: Vec<Column>,
    /// `(label, one number per remaining column)`; NaN prints as `—`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// A table whose columns are `header` split at `" | "`, each numeric one
    /// written `name:format` (see [`Column::format`]).
    pub(crate) fn new(caption: &str, header: &str, rows: Vec<(String, Vec<f64>)>) -> Table {
        let column = |spec: &str| {
            let (name, format) = spec.rsplit_once(':').unwrap_or((spec, "0"));
            Column {
                name: name.to_string(),
                format: format.chars().next().unwrap_or('0'),
            }
        };
        Table {
            caption: caption.to_string(),
            columns: header.split(" | ").map(column).collect(),
            rows,
        }
    }
}

/// What the paper, or `analysis`, says about a column. A series is a row's
/// label; `""` is every row. The last three are interval claims: each row
/// of the series is a seeded measurement of `N` trials (`N` is the row's
/// cell of the named trials column), and its interval, at the family-wise
/// confidence [`FAMILY_CONFIDENCE`], must hold the value. A row whose
/// trials cell is empty is not a measurement and is not read.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Every cell of the series lies in the paper's printed range, ends included.
    Band(&'static str, f64, f64),
    /// Every cell of the series lies within ± 10 % of the paper's printed value.
    Point(&'static str, f64),
    /// The first series reads strictly below the second at every point both have.
    Below(&'static str, &'static str),
    /// First series ÷ second lies in the range at every point both have.
    Ratio(&'static str, &'static str, f64, f64),
    /// A rate: its Wilson interval holds the row's cell of the predicted
    /// column (second), with `N` from the trials column (third).
    Rate(&'static str, &'static str, &'static str),
    /// A rate that must not read below its floor: its Wilson interval
    /// reaches it, with `N` from the trials column. The one-sided claim of
    /// a guarantee — the paper's bound, or a prediction that is a lower
    /// bound by construction.
    RateAtLeast(&'static str, Floor, &'static str),
    /// A mean: its normal interval, from the row's cell of the standard
    /// deviation column (third) and `N` from the trials column (fourth),
    /// holds the row's cell of the predicted column (second).
    Mean(&'static str, &'static str, &'static str, &'static str),
}
use Kind::{Band, Below, Mean, Point, Rate, RateAtLeast, Ratio};

/// What a [`Kind::RateAtLeast`] claim must reach.
#[derive(Debug, Clone, Copy)]
pub enum Floor {
    /// A value the paper prints.
    Paper(f64),
    /// The row's cell of a predicted column.
    Predicted(&'static str),
}

/// The most interval cells one document may hold; `reproduce` reports a
/// run with more. Each interval is taken at the Bonferroni share of
/// [`FAMILY_CONFIDENCE`] over this many, so all of them hold together with
/// at least that probability where every prediction is right.
pub const FAMILY_CELLS: usize = 100;

/// The two-sided quantile every interval is taken at.
fn family_z() -> f64 {
    analysis::interval::bonferroni_z(FAMILY_CONFIDENCE, FAMILY_CELLS)
}

/// One value of the paper's, attached to a column of an experiment.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Unique within the experiment; `experiment/id` names it everywhere.
    pub id: &'static str,
    /// The column it reads.
    pub column: &'static str,
    /// The paper's value.
    pub kind: Kind,
}

fn number(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e6) {
        return format!("{v:e}").replace("inf", "∞");
    }
    let fixed = format!("{v:.4}");
    fixed
        .trim_end_matches('0')
        .trim_end_matches('.')
        .to_string()
}

impl Claim {
    /// Whether a measured value — for `Below` and `Ratio`, the quotient — is
    /// what the paper says. (Interval claims read a row, not a value.)
    fn admits(&self, v: f64) -> bool {
        match self.kind {
            Band(_, lo, hi) | Ratio(_, _, lo, hi) => lo <= v && v <= hi,
            Point(_, value) => value * 0.9 <= v && v <= value * 1.1,
            Below(..) => v > 1.0,
            Rate(..) | RateAtLeast(..) | Mean(..) => false,
        }
    }

    /// The series whose cells the claim reads one by one against a value.
    fn series(&self) -> Option<&'static str> {
        match self.kind {
            Band(series, ..) | Point(series, _) => Some(series),
            Rate(series, ..) | RateAtLeast(series, ..) | Mean(series, ..) => Some(series),
            Below(..) | Ratio(..) => None,
        }
    }

    /// Whether the claim reads each row of its table against an interval.
    fn per_row(&self) -> bool {
        matches!(self.kind, Rate(..) | RateAtLeast(..) | Mean(..))
    }

    /// The interval of the row `numbers` of `table` (which holds the
    /// claim's column), the value it must hold, and whether it does.
    fn interval(&self, table: &Table, numbers: &[f64]) -> Option<(Interval, f64, bool)> {
        let cell = |name: &str| {
            let at = table.columns.iter().position(|c| c.name == name)?;
            numbers.get(at.checked_sub(1)?).copied()
        };
        // A row without a trial count is not a measurement.
        let read = |name: &str| cell(name).filter(|v| !v.is_nan());
        let (measured, z) = (read(self.column)?, family_z());
        let trials = |name: &str| read(name).map(|n| n as u64);
        let predicted = match self.kind {
            Rate(_, p, _) | RateAtLeast(_, Floor::Predicted(p), _) | Mean(_, p, ..) => read(p)?,
            RateAtLeast(_, Floor::Paper(bound), _) => bound,
            _ => return None,
        };
        let interval = match self.kind {
            Mean(_, _, sd, n) => normal_mean(measured, read(sd)?, trials(n)?, z),
            Rate(_, _, n) | RateAtLeast(_, _, n) => {
                let n = trials(n)?;
                wilson((measured * n as f64).round() as u64, n, z)
            }
            _ => return None,
        };
        let holds = match self.kind {
            RateAtLeast(..) => interval.hi >= predicted,
            _ => interval.contains(predicted),
        };
        Some((interval, predicted, holds))
    }

    /// The paper's side of the claim, as text.
    pub(crate) fn paper(&self) -> String {
        match self.kind {
            Band(_, lo, hi) if lo == hi => number(lo),
            Band(_, lo, hi) => format!("{}–{}", number(lo), number(hi)),
            Point(_, value) => format!("≈ {}", number(value)),
            Below(less, more) => format!("{less} < {more}"),
            Ratio(num, den, lo, hi) => format!("{num} ÷ {den} in {}–{}", number(lo), number(hi)),
            Rate(_, predicted, _) => format!("{predicted} in the Wilson interval"),
            RateAtLeast(_, Floor::Paper(bound), _) => {
                format!("≥ {} within the Wilson interval", number(bound))
            }
            RateAtLeast(_, Floor::Predicted(predicted), _) => {
                format!("≥ {predicted} within the Wilson interval")
            }
            Mean(_, predicted, ..) => format!("{predicted} in the normal interval"),
        }
    }
}

/// `(point, value)` of the cells a claim reads.
type Cells = Vec<(f64, f64)>;

/// The column named `column` and the cells it holds in `series`.
fn select<'t>(tables: &'t [Table], column: &str, series: &str) -> Option<(&'t Column, Cells)> {
    let found = tables.iter().find_map(|table| {
        let c = table.columns.iter().position(|col| col.name == column)?;
        Some((table, c.checked_sub(1)?))
    });
    let (table, c) = found?;
    let rows = table.rows.iter();
    let rows = rows.filter(|(label, _)| series.is_empty() || label == series);
    let cells: Cells = rows.map(|(_, numbers)| (numbers[0], numbers[c])).collect();
    (!cells.is_empty()).then_some((&table.columns[c + 1], cells))
}

/// How a [`Claim`] reads against measured tables.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Verdict {
    /// Every cell the claim names exists and is what the paper says.
    pub holds: bool,
    /// The claim read a timing column: it is shown, never asserted.
    pub timing: bool,
    /// The measured value or range, as text.
    pub measured: String,
    /// The intervals the claim read (0 unless it is an interval claim).
    pub intervals: usize,
}

/// `[lo, hi]` with the digits of `column`.
fn show_interval(column: &Column, i: &Interval) -> String {
    format!("[{}, {}]", column.show(i.lo), column.show(i.hi))
}

/// Read an interval claim against the table holding its column: it holds
/// when every row's interval holds its value; the rows outside are named
/// with their numbers.
fn evaluate_intervals(claim: &Claim, tables: &[Table]) -> Verdict {
    let column = |table: &Table| table.columns.iter().position(|c| c.name == claim.column);
    let found = tables
        .iter()
        .find_map(|table| Some((table, column(table)?)));
    let series = claim.series().unwrap_or_default();
    let rows: Vec<_> = found.map_or(Vec::new(), |(table, _)| {
        let rows = table.rows.iter();
        let rows = rows.filter(|(label, _)| series.is_empty() || label == series);
        rows.filter_map(|(label, numbers)| Some((label, numbers, claim.interval(table, numbers)?)))
            .collect()
    });
    let (Some((table, at)), false) = (found, rows.is_empty()) else {
        let measured = "no such cell".to_string();
        return Verdict {
            holds: false,
            timing: false,
            measured,
            intervals: 0,
        };
    };
    let (shown, first) = (&table.columns[at], &table.columns[1]);
    let outside: Vec<String> = rows
        .iter()
        .filter(|(.., (_, _, holds))| !holds)
        .map(|(label, numbers, (interval, value, _))| {
            let point = format!("{} = {}", first.name, first.show(numbers[0]));
            let measured = shown.show(numbers[at - 1]);
            let (interval, value) = (show_interval(shown, interval), shown.show(*value));
            format!("{label}, {point}: {measured} {interval} against {value}")
        })
        .collect();
    Verdict {
        holds: outside.is_empty(),
        timing: false,
        measured: match outside.is_empty() {
            true if rows.len() == 1 => "inside".to_string(),
            true => format!("inside at all {} rows", rows.len()),
            false => format!("outside at {}", outside.join("; ")),
        },
        intervals: rows.len(),
    }
}

/// Read `claim` against an experiment's tables. A claim that names no
/// existing cell, or two series that share no point, does not hold.
pub(crate) fn evaluate(claim: &Claim, tables: &[Table]) -> Verdict {
    let (series, under) = match claim.kind {
        Band(series, ..) | Point(series, _) => (series, None),
        Below(den, num) | Ratio(num, den, ..) => (num, Some(den)),
        Rate(..) | RateAtLeast(..) | Mean(..) => return evaluate_intervals(claim, tables),
    };
    let mut read = select(tables, claim.column, series);
    if let (Some((_, nums)), Some(den)) = (&mut read, under) {
        let dens = select(tables, claim.column, den).map_or(Vec::new(), |(_, cells)| cells);
        let over = |&(point, n): &(f64, f64)| {
            let (_, d) = dens.iter().find(|(p, _)| *p == point)?;
            Some((point, n / d))
        };
        *nums = nums.iter().filter_map(over).collect();
    }
    let Some((column, cells)) = read.filter(|(_, cells)| !cells.is_empty()) else {
        let measured = "no such cell".to_string();
        return Verdict {
            holds: false,
            timing: false,
            measured,
            intervals: 0,
        };
    };
    let show = |v: f64| match under {
        Some(_) => format!("{v:.2}"),
        None => column.show(v),
    };
    let values = cells.iter().map(|&(_, v)| v);
    let lo = show(values.clone().fold(f64::INFINITY, f64::min));
    let hi = show(values.clone().fold(f64::NEG_INFINITY, f64::max));
    let span = if lo == hi { lo } else { format!("{lo}–{hi}") };
    Verdict {
        holds: values.clone().all(|v| claim.admits(v)),
        timing: column.format == 's',
        measured: match under {
            Some(den) => format!("{series} ÷ {den} = {span}"),
            None => span,
        },
        intervals: 0,
    }
}

/// One experiment of the paper's evaluation, declared once.
#[derive(Debug)]
pub struct Experiment {
    /// What `reproduce NAME` calls it.
    pub name: &'static str,
    /// Where the paper has it.
    pub section: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// The default scale (seconds).
    pub quick: Scale,
    /// The paper's scale (`--full`).
    pub paper: Scale,
    /// Computes the tables at a scale.
    pub run: fn(&Scale) -> Vec<Table>,
    /// The paper's values.
    pub claims: &'static [Claim],
}

/// Declares the registry once (the `server_counters!` idiom): an entry is
/// `name "section" "title" [quick, paper] { "claim id": "column" kind, … }`,
/// and `name` is also the function of `experiments` that computes it.
macro_rules! registry {
    ($($name:ident $section:literal $title:literal [$quick:expr, $paper:expr] {
        $($id:literal: $column:literal $kind:expr,)*
    })*) => {
        /// Every experiment, in the order the document prints them.
        pub static REGISTRY: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            section: $section,
            title: $title,
            quick: $quick,
            paper: $paper,
            run: experiments::$name,
            claims: &[$(Claim { id: $id, column: $column, kind: $kind },)*],
        },)*];
    };
}

const ESTIMATOR_D: &[usize] = &[10, 100, 1_000, 10_000];
const TABLE2_D: &[usize] = &[10, 100, 1_000, 3_000];

registry! {
    fig1 "§8.1, Figure 1" "PBS vs PinSketch vs D.Digest, target success rate 0.99, r = 3"
    [quick(5), PAPER] {
        "success": "success" Band("", 0.99, 1.0),
        "pbs-overhead": "× minimum" Band("PBS", 2.13, 2.87),
        "pinsketch-overhead": "× minimum" Point("PinSketch", 1.38),
        "ddigest-overhead": "× minimum" Point("D.Digest", 6.0),
        "pinsketch-below-pbs": "× minimum" Below("PinSketch", "PBS"),
        "pbs-below-ddigest": "× minimum" Below("PBS", "D.Digest"),
        "pbs-encodes-faster-than-pinsketch": "encode (s)" Below("PBS", "PinSketch"),
        "pbs-encodes-faster-than-ddigest": "encode (s)" Below("PBS", "D.Digest"),
        "pinsketch-decode-explodes": "decode (s)" Below("PBS", "PinSketch"),
    }
    fig2 "§8.2, Figure 2" "PBS vs Graphene with B ⊂ A (Graphene's best case), target success rate 239/240"
    [quick(5), PAPER] {
        "success": "success" Band("", 239.0 / 240.0, 1.0),
        "graphene-over-pbs": "comm (KB)" Ratio("Graphene", "PBS", 1.2, 7.4),
        "pbs-encodes-faster": "encode (s)" Below("PBS", "Graphene"),
        "graphene-decodes-faster": "decode (s)" Below("Graphene", "PBS"),
    }
    fig3 "§8.3, Figure 3" "PBS vs PinSketch/WP (PinSketch over PBS's partition), target success rate 0.99"
    [quick(5), PAPER] {
        "success": "success" Band("", 0.99, 1.0),
        "pbs-below-wp": "× minimum" Below("PBS", "PinSketch/WP"),
    }
    fig4 "Appendix J.2, Figure 4" "PBS against δ, the average difference per group: communication for computation"
    [scale(50_000, 3, &[2_000]), scale(1_000_000, 100, &[10_000])] {
        "success": "success" Band("", 0.99, 1.0),
        "communication-falls-with-delta": "× minimum" Below("PBS δ=30", "PBS δ=3"),
        "encode-time-rises-with-delta": "encode (s)" Below("PBS δ=3", "PBS δ=30"),
        "decode-time-rises-with-delta": "decode (s)" Below("PBS δ=3", "PBS δ=30"),
    }
    fig5 "Appendix J.3, Figure 5" "PBS vs PinSketch/WP at 256-bit signatures (transaction ids)"
    [quick(3), PAPER] {
        "pbs-below-wp-at-256-bits": "× minimum" Below("PBS", "PinSketch/WP"),
    }
    table1 "Appendix H, Table 1" "Success lower bound over the planner's (n, t) grid, and the optimal cell at p0 = 99 %"
    [ANALYTICAL, ANALYTICAL] {
        "cell-127-13": "n = 127" Point("13", 99.1),
        "optimal-n": "optimal n" Point("optimizer", 127.0),
        "optimal-t": "optimal t" Point("optimizer", 13.0),
    }
    table2 "Appendix J.1, Table 2" "How many rounds PBS needs, held to the analysis at the planned cell of each d and at Table 1's corners"
    [scale(10_000, 1_000, TABLE2_D), scale(1_000_000, 10_000, TABLE2_D)] {
        "mean-rounds": "mean r" Band("planned", 1.2, 2.2),
        "done-in-1": "P(R ≤ 1)" Rate("", "predicted P(R ≤ 1)", "trials"),
        "done-in-2": "P(R ≤ 2)" RateAtLeast("", Floor::Predicted("predicted P(R ≤ 2)"), "trials"),
        "success-within-r": "P(R ≤ 3)" RateAtLeast("", Floor::Predicted("predicted P(R ≤ 3)"), "trials"),
        "mean-bytes": "bytes" Mean("", "predicted bytes", "sd bytes", "trials"),
    }
    section2 "§1.3.1, §2.2.1, §2.3" "The ideal case and the type (I)/(II) exceptions, d balls into n bins"
    [ANALYTICAL, ANALYTICAL] {
        "ideal": "ideal" Point("5, 255", 0.96),
        "type-i": "type I" Point("5, 255", 0.04),
        "type-ii": "type II" Point("5, 255", 1.52e-4),
        "type-ii-undetected": "type II undetected" Point("5, 255", 6e-7),
    }
    section5_piecewise "§5.3, Appendix G" "Share of the difference reconciled in each round (d = 1000)"
    [scale(50_000, 200, &[]), scale(1_000_000, 1_000, &[])] {
        "round-1": "analytical" Point("1", 0.962),
        "round-2": "analytical" Point("2", 0.0380),
        "round-3": "analytical" Point("3", 3.61e-4),
        "round-4": "analytical" Point("4", 2.86e-6),
        "measured-round-1": "measured" Mean("1", "planned", "sd", "trials"),
        "measured-round-2": "measured" Mean("2", "planned", "sd", "trials"),
        "measured-round-3": "measured" Mean("3", "planned", "sd", "trials"),
        "measured-round-4": "measured" Mean("4", "planned", "sd", "trials"),
    }
    section5_r_sweep "§5.2" "Optimal first-round communication per group pair against the target rounds r"
    [ANALYTICAL, ANALYTICAL] {
        "bits-r1": "per-group total (bits)" Point("1", 591.0),
        "bits-r2": "per-group total (bits)" Point("2", 402.0),
        "bits-r3": "per-group total (bits)" Point("3", 318.0),
        "bits-r4": "per-group total (bits)" Point("4", 288.0),
        // 318 = 13·7 + 5·7 + 5·32 + 32: the paper's r = 3 cell is Table 1's (127, 13).
        "t-at-r3": "t" Point("3", 13.0),
    }
    section6 "§6, Appendices A–B" "The Tug-of-War estimator: bias, the 1.38 inflation's coverage, and its size"
    [scale(1_000_000, 4_000, ESTIMATOR_D), scale(1_000_000, 10_000, ESTIMATOR_D)] {
        "coverage": "P[d ≤ 1.38·d̂]" RateAtLeast("", Floor::Paper(0.99), "trials"),
        "tow-bytes": "bytes" Point("ToW (128 sketches)", 336.0),
        "strata-ten-times-tow": "bytes" Ratio("Strata (32 x 80 cells)", "ToW (128 sketches)", 10.0, f64::INFINITY),
    }
    ablation_checksum "§2.2.3, §2.3" "How often exceptions occur, and whether a checksum ever verifies a wrong answer"
    [scale(20_000, 30, &[100, 1_000]), PAPER] {
        "no-false-verification": "mismatches" Band("", 0.0, 0.0),
    }
    ablation_split "§3.2" "Why a three-way split after a BCH decoding failure"
    [ANALYTICAL, ANALYTICAL] {
        "two-way": "2-way" Point("13", 1.2e-3),
        "three-way": "3-way" Point("13", 9.5e-10),
    }
}

/// The claims over deterministic columns that read ✗ at quick scale, each
/// with what is known about it. A unit test and `reproduce`'s exit code hold
/// it equal to the evaluated set: neither a ✓ turning ✗ nor a finding being
/// fixed goes unrecorded.
pub const OPEN_FINDINGS: &[(&str, &str)] = &[
    (
        "fig1/pbs-overhead",
        "Below the band, not above: 1.92 × at d = 10, 2.04 × at d = 100, inside at d = 1000. The \
         band is the paper's for d = 10…10⁵ at |A| = 10⁶, and this optimizer plans a smaller t \
         than the paper's (`table1/optimal-t`). The bytes are the plan's: `table2/mean-bytes` \
         holds 1 000 runs a point to within 0.3 % of what `analysis` predicts at the planned \
         (n, t). Verdict: the plan, not the scheme.",
    ),
    (
        "fig1/pinsketch-overhead",
        "Accounting, not coding: this PinSketch charges Bob's d·log|U| reply carrying the \
         recovered difference (1.00 ×) on top of the ⌈1.38·d̂⌉-syndrome sketch the paper counts \
         alone; without the reply it reads 1.37–1.48 ×. Verdict: a named difference of \
         accounting.",
    ),
    (
        "fig1/pinsketch-below-pbs",
        "Follows from `fig1/pinsketch-overhead`: with the reply charged PinSketch sits above PBS \
         at every d; the sketch alone (1.37–1.48 ×) sits below.",
    ),
    (
        "table1/optimal-t",
        "The bound clears 99 % at t = 11 (99.351 %), so the optimizer stops two short of the \
         paper's darkened cell (127, 13). Counting every group over t as failed, as Appendix F's \
         truncation does, would need t = 17, and the scheme rejects that model: at the planned \
         (127, 11), d = 1000, 998 of 1 000 runs finish within 3 rounds (Wilson [0.9814, \
         0.9998]) where truncation predicts α^g = 0.343 and this model 0.9968 \
         (`table2/success-within-r`). Verdict: a difference of definition — this model follows \
         a group over the capacity through its §3.2 split, as the scheme does. How the paper's \
         Table 1 treats that group is Appendix F's text, which is not in the repository \
         (PAPER.md is a title stub).",
    ),
    (
        "table2/mean-rounds",
        "2.27 at d = 1000 and 2.31 at d = 3000 (1 000 runs each) against the paper's ≤ 2.2: the \
         planned t = 11 (`table1/optimal-t`) leaves more groups to round 3 than the paper's \
         t = 13. At the plan the rounds are the analysis': P(R ≤ 1) is inside its interval at \
         every point, P(R ≤ 2) and P(R ≤ 3) are not below theirs. Verdict: the plan, not the \
         scheme.",
    ),
    (
        "table2/mean-bytes",
        "The scheme spends less than the model: 6.1, 8.6 and 21.8 B under the prediction at the \
         planned cells of d = 100, 1000 and 3000 (0.1–0.3 %), 113 B (1.6 %) at (63, 8). Verdict: \
         a named difference of definition. The model fails the first decode of every group over \
         the capacity t and splits it; the scheme's BCH decode fails only when more than t bins \
         are odd, so a group over t whose collisions leave at most t odd bins decodes and saves \
         the split's extra sketches and checksums; that such groups decode shows in round 1 \
         (`section5_piecewise/measured-round-2`: 0.0029 of d over what the model allows). The \
         same rule lifts P(R ≤ 2) above the model — 0.736 \
         against 0.695 at d = 1000, 0.075 against 0.028 at (63, 8) — and a split part over t \
         that splits again lifts P(R ≤ 3) at (2047, 8) to 1.000 against 0.964, which is why \
         those two claims are floors. The planner keeps the model: it errs low, and moving it \
         would move plans.",
    ),
    (
        "section5_piecewise/measured-round-2",
        "Reads 0.0472 [0.0436, 0.0507] against Appendix G's 0.0370 at the planned (127, 11), \
         where the paper's (127, 13) column has 0.0380; rounds 1 and 4 are inside their \
         intervals. Verdict: a named difference of definition. Appendix G counts the elements of \
         a group over the capacity as never reconciled — the planned column's residual, 0.0134 \
         of d — and the scheme reconciles them: 0.0029 in round 1 (a group over t whose \
         collisions leave at most t odd bins decodes), 0.0101 in round 2 and 0.0003 in round 3 \
         after the split, 0.0134 in all. The paper comparison stays on the (127, 13) column, \
         which reads ✓.",
    ),
    (
        "section5_piecewise/measured-round-3",
        "6.9e-4 [3.7e-4, 1.0e-3] against 3.5e-4: the split groups' last elements, \
         3.4e-4 of d (`section5_piecewise/measured-round-2`).",
    ),
    (
        "section5_r_sweep/t-at-r3",
        "The four bit counts read ✓ only because ± 10 % is wide — 632/382/304/282 against \
         591/402/318/288 is +6.9/−5.0/−4.4/−2.1 % — and each comes from a smaller t than the \
         paper's: 318 = (13 + 5)·7 + 192 is (127, 13), this optimizer's 304 is (127, 11). \
         Verdict: follows from `table1/optimal-t`.",
    ),
    (
        "ablation_split/three-way",
        "The union bound over the binomial marginals matches the paper's two-way 1.2e-3 (1.175e-3) \
         and reads 1.292e-5 for the three-way split and 4.496e-7 for four-way at t = 13, the \
         three-way four orders above the printed 9.5e-10. Which conditioning the printed figure \
         uses is the appendix's text, which is not in the repository (PAPER.md is a title stub). \
         Verdict: undecided; the scheme's own three-way split is held by `table2`.",
    ),
];

/// `MARK[holds as usize]`.
const MARK: [&str; 2] = ["✗", "✓"];

/// One Markdown table; a column some band or point claim reads gets the
/// paper's value, and whether the cell is inside it, in a column beside it;
/// a column an interval claim reads gets each row's interval and whether it
/// holds its value.
fn render_table(table: &Table, claims: &[Claim], out: &mut String) {
    // Per numeric column, the band, point and interval claims that read it.
    let citing = |column: &Column| -> Vec<&Claim> {
        let reads = |c: &&Claim| c.column == column.name && c.series().is_some();
        claims.iter().filter(reads).collect()
    };
    let cited: Vec<Vec<&Claim>> = table.columns[1..].iter().map(citing).collect();
    if !table.caption.is_empty() {
        let _ = writeln!(out, "*{}*\n", table.caption);
    }
    let (mut head, mut rule) = (format!("| {} ", table.columns[0].name), "|:--".to_string());
    for (column, cites) in table.columns[1..].iter().zip(&cited) {
        let paper = match cites.first() {
            None => "",
            Some(c) if c.per_row() => "| interval ",
            Some(_) => "| paper ",
        };
        head += &format!("| {} {paper}", column.name);
        rule += if cites.is_empty() { "|--:" } else { "|--:|:--" };
    }
    let _ = writeln!(out, "{head}|\n{rule}|");
    for (label, numbers) in &table.rows {
        let _ = write!(out, "| {label} ");
        for ((column, &v), cites) in table.columns[1..].iter().zip(numbers).zip(&cited) {
            let _ = write!(out, "| {} ", column.show(v));
            if !cites.is_empty() {
                let mine = |c: &&&Claim| c.series().is_some_and(|s| s.is_empty() || s == label);
                let cite = |c: &&Claim| match c.interval(table, numbers) {
                    Some((i, _, holds)) => {
                        format!("{} {}", show_interval(column, &i), MARK[holds as usize])
                    }
                    None if c.per_row() => String::new(),
                    None => format!("{} {}", c.paper(), MARK[c.admits(v) as usize]),
                };
                let mine: Vec<String> = cites.iter().filter(mine).map(cite).collect();
                let _ = write!(out, "| {} ", mine.join("; "));
            }
        }
        out.push_str("|\n");
    }
    out.push('\n');
}

/// Days since 1970-01-01 as a civil `(year, month, day)`.
fn civil_from_days(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let (era, doe) = (z.div_euclid(146_097), z.rem_euclid(146_097));
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let (d, m) = (doy - (153 * mp + 2) / 5 + 1, (mp + 2) % 12 + 1);
    (yoe + era * 400 + (m <= 2) as i64, m, d)
}

/// Title, how the document was made (command, scale, date, box), how to read it.
fn header(full: bool, names: &[String], intervals: usize) -> String {
    let now = SystemTime::now().duration_since(UNIX_EPOCH);
    let (y, m, d) = civil_from_days(now.map_or(0, |t| t.as_secs() / 86_400) as i64);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo.lines().find(|l| l.starts_with("model name"));
    let cpu = cpu
        .and_then(|l| l.split_once(": "))
        .map_or("unknown CPU", |(_, model)| model);
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (os, arch) = (std::env::consts::OS, std::env::consts::ARCH);
    let args = full.then_some("--full").into_iter();
    let args: Vec<&str> = args.chain(names.iter().map(String::as_str)).collect();
    let args = if args.is_empty() {
        String::new()
    } else {
        format!(" -- {}", args.join(" "))
    };
    let scale = if full { "paper" } else { "quick" };
    format!(
        "# Reproduction of the paper's evaluation\n\n\
         The output of `cargo run --release -p bench --bin reproduce{args}`: regenerate it, do\n\
         not edit it. Experiments, scales and the paper's values are declared in\n\
         `crates/bench/src/lib.rs`.\n\n\
         - **scale:** {scale} (`--full` is the paper's: |A| = 10⁶, 100 trials a point, d up to 10⁵;\n\
         \x20 the interval experiments `table2` and `section6` run 10 000)\n\
         - **date:** {y:04}-{m:02}-{d:02} (UTC)\n\
         - **box:** {cpu}, {threads} hardware threads, {os}/{arch}; every run single-threaded\n\n\
         Beside each column the paper gives a value for stands a **paper** column: `lo–hi` is\n\
         a range the paper prints, `≈ v` a value it prints, held to ± 10 %; ✓/✗ says whether\n\
         the measured cell is inside. Beside each column that a seeded measurement holds to a\n\
         prediction stands an **interval** column: the row's Wilson score interval (a rate)\n\
         or normal interval (a mean, from the row's standard deviation), computed from the\n\
         row's own trial count; ✓ says it holds the row's predicted cell (or, for `≥ v`,\n\
         reaches the paper's bound). Every interval is taken at z = {z:.2}: the Bonferroni\n\
         share of a {confidence} % family-wise confidence over at most {cells} interval cells\n\
         (this document holds {intervals}), so where every prediction is right all intervals\n\
         hold together with probability ≥ {confidence} %. An interval is never widened to\n\
         admit a reading. Under each table every claim is listed with what was measured.\n\
         Seeds are fixed, so every column but the wall-clock `(s)` ones reads the same on\n\
         every run and box; a ✗ over such a column is pinned in `OPEN_FINDINGS` (`reproduce`\n\
         exits 1 when the two disagree). Claims over timing columns are shown and never\n\
         asserted.\n\n",
        z = family_z(),
        confidence = FAMILY_CONFIDENCE * 100.0,
        cells = FAMILY_CELLS,
    )
}

/// Run the named experiments (all of them when `names` is empty) at quick or
/// paper scale. `Ok` is the Markdown document and, at quick scale, every way
/// the asserted claims of the experiments run differ from [`OPEN_FINDINGS`];
/// `Err` names an experiment the registry does not have.
pub fn reproduce(names: &[String], full: bool) -> Result<(String, Vec<String>), String> {
    let known = |name: &String| REGISTRY.iter().any(|e| e.name == name);
    if let Some(unknown) = names.iter().find(|name| !known(name)) {
        return Err(format!("no experiment named '{unknown}'"));
    }
    let (mut findings, mut body, mut drift) = (String::new(), String::new(), Vec::new());
    let mut intervals = 0;
    let asked = |e: &&Experiment| names.is_empty() || names.iter().any(|n| n == e.name);
    for e in REGISTRY.iter().filter(asked) {
        let scale = if full { &e.paper } else { &e.quick };
        let started = Instant::now();
        let tables = (e.run)(scale);
        let took = started.elapsed().as_secs_f64();
        let (set_size, trials, d_values) = (scale.set_size, scale.trials, scale.d_values);
        let workload = match (trials, d_values.is_empty()) {
            (0, _) => "Analytical: no workload".to_string(),
            (_, true) => format!("|A| = {set_size}, {trials} trials"),
            _ => format!("|A| = {set_size}, {trials} trials per point, d ∈ {d_values:?}"),
        };
        let (name, section, title) = (e.name, e.section, e.title);
        let _ = writeln!(body, "## {name} — {section}\n\n{title}.\n");
        let _ = writeln!(body, "{workload}; ran in {took:.1} s.\n");
        for table in &tables {
            render_table(table, e.claims, &mut body);
        }
        for claim in e.claims {
            let id = format!("{name}/{}", claim.id);
            let verdict = evaluate(claim, &tables);
            intervals += verdict.intervals;
            let (holds, asserted, measured) = (verdict.holds, !verdict.timing, verdict.measured);
            let (mark, paper, column) = (MARK[holds as usize], claim.paper(), claim.column);
            let of = claim.series().filter(|s| !s.is_empty());
            let of = of.map_or(String::new(), |series| format!(" of {series}"));
            let source = if claim.per_row() { "held to" } else { "paper" };
            let _ = write!(
                body,
                "- {mark} `{id}` — {column}{of}: {source} {paper}, measured {measured}"
            );
            body += if asserted {
                "\n"
            } else {
                " (timing: shown, not asserted)\n"
            };
            let note = OPEN_FINDINGS.iter().find(|(open, _)| *open == id);
            if asserted && !holds {
                let note = note.map_or("Not in OPEN_FINDINGS.", |(_, note)| note);
                let _ = writeln!(
                    findings,
                    "- ✗ `{id}` — {source} {paper}, measured {measured}. {note}"
                );
            }
            if !full && asserted && holds == note.is_some() {
                drift.push(match holds {
                    true => format!("{id} reads ✓ now: take it off OPEN_FINDINGS"),
                    false => format!("{id} reads ✗ ({measured}) and is not in OPEN_FINDINGS"),
                });
            }
        }
        body.push('\n');
    }
    if intervals > FAMILY_CELLS {
        drift.push(format!(
            "{intervals} interval cells: more than the {FAMILY_CELLS} the family-wise confidence is split over"
        ));
    }
    let intro = "Claims over deterministic columns that read ✗ in this run:";
    let head = header(full, names, intervals);
    let markdown = format!("{head}## Findings\n\n{intro}\n\n{findings}\n{body}");
    Ok((markdown, drift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_core::Pbs;

    #[test]
    fn run_point_aggregates_sane_values() {
        let workload = Workload {
            set_size: 2_000,
            d: 20,
            universe_bits: 32,
            subset_mode: true,
        };
        let p = run_point(&Pbs::paper_default(), &workload, 3, 1);
        assert_eq!(p.scheme, "PBS");
        assert!(p.success_rate > 0.0);
        assert!(p.mean_comm_kb > 0.0);
        assert!(p.comm_over_minimum > 1.0);
        assert!(p.mean_rounds >= 1.0);
    }

    /// ToW's counters cancel on `A ∩ B`, which is why `section6` runs at
    /// |A| just above d: two pairs with the same difference, sharing 16 or
    /// 5 000 elements besides, give the same estimate under the same seed.
    #[test]
    fn a_tow_estimate_depends_on_the_difference_alone() {
        use estimator::{Estimator, TowEstimator};
        let pool = workload_pool(5_300);
        let (difference, shared) = pool.split_at(300);
        let estimate = |common: &[u64], seed| {
            let mut a = TowEstimator::paper_default(seed);
            let mut b = a.clone();
            a.insert_slice(difference);
            a.insert_slice(common);
            b.insert_slice(common);
            a.estimate(&b)
        };
        for seed in [1, 7, 0xE571] {
            assert_eq!(estimate(&shared[..16], seed), estimate(shared, seed));
        }
    }

    /// `n` distinct elements of a 32-bit universe.
    fn workload_pool(n: usize) -> Vec<u64> {
        let workload = Workload {
            set_size: n,
            d: 0,
            universe_bits: 32,
            subset_mode: true,
        };
        workload.generate(0x5EED).a
    }

    fn assert_unique<T: Ord + std::fmt::Debug>(mut items: Vec<T>) {
        let declared = items.len();
        items.sort();
        items.dedup();
        assert_eq!(items.len(), declared, "a name repeats among {items:?}");
    }

    /// Names are unique; at a smoke scale rows match the columns, column
    /// names are unique and every claim names cells that exist; every open
    /// finding is a claim.
    #[test]
    fn the_registry_is_well_formed() {
        assert_unique(REGISTRY.iter().map(|e| e.name).collect());
        assert_eq!(REGISTRY.len(), 13);
        let mut ids = Vec::new();
        for e in REGISTRY {
            let tables = (e.run)(&scale(2_000, 1, &[10, 20]));
            let columns = tables.iter().flat_map(|t| &t.columns);
            assert_unique(columns.map(|c| c.name.clone()).collect());
            for table in &tables {
                let width = table.columns.len() - 1;
                assert!(width >= 1 && !table.rows.is_empty(), "{}", e.name);
                assert!(
                    table.rows.iter().all(|(_, n)| n.len() == width),
                    "{}",
                    e.name
                );
            }
            for claim in e.claims {
                let found = |s: &&str| select(&tables, claim.column, s).is_some();
                let names_cells = match claim.kind {
                    Band(series, ..) | Point(series, _) => found(&series),
                    Below(a, b) | Ratio(a, b, ..) => [a, b].iter().all(found),
                    // Every column it names, in one table, on every row.
                    Rate(..) | RateAtLeast(..) | Mean(..) => evaluate(claim, &tables).intervals > 0,
                };
                assert!(names_cells, "{}/{} names no cell", e.name, claim.id);
                ids.push(format!("{}/{}", e.name, claim.id));
            }
        }
        assert_unique(ids.clone());
        for (finding, note) in OPEN_FINDINGS {
            assert!(
                ids.contains(&finding.to_string()) && !note.is_empty(),
                "{finding}"
            );
        }
    }

    /// The pin: at quick scale the asserted claims read ✗ exactly where
    /// [`OPEN_FINDINGS`] says. `fig1` runs PinSketch at d = 1000 — 4 s
    /// optimised, two minutes unoptimised — and `table2` and `section6` run
    /// their thousands of trials a point in 18 s and 3 s optimised, so a
    /// debug test run leaves the three to `cargo test --release` and to
    /// CI's `reproduce` step.
    #[test]
    fn open_findings_equal_the_claims_that_read_false_at_quick_scale() {
        let heavy = ["fig1", "table2", "section6"];
        let slow = |e: &&Experiment| cfg!(debug_assertions) && heavy.contains(&e.name);
        let names = REGISTRY
            .iter()
            .filter(|e| !slow(e))
            .map(|e| e.name.to_string());
        let names: Vec<String> = names.collect();
        assert!(names.len() >= 10, "an empty list would mean all");
        assert_eq!(reproduce(&names, false).unwrap().1, Vec::<String>::new());
    }

    #[test]
    fn claims_evaluate_against_a_hand_made_table() {
        let row = |scheme: &str, d: f64, x: f64, s: f64| (scheme.to_string(), vec![d, x, s]);
        let rows = vec![
            row("A", 10.0, 2.0, 0.5),
            row("B", 10.0, 3.0, 0.1),
            row("A", 100.0, 2.2, 0.5),
            row("B", 100.0, 2.2, 0.9),
            row("C", 1000.0, 9.0, 0.1),
        ];
        let t = vec![Table::new("", "scheme | d | x:2 | time (s):s", rows)];
        let read = |column, kind| {
            evaluate(
                &Claim {
                    id: "",
                    column,
                    kind,
                },
                &t,
            )
        };
        let holds = |kind| read("x", kind).holds;
        // Band: inside, on both edges, outside; no such series, no such column.
        assert!(holds(Band("A", 1.9, 2.3)) && holds(Band("A", 2.0, 2.2)));
        assert!(!holds(Band("A", 2.05, 2.3)) && !holds(Band("", 2.0, 3.0)));
        assert!(!holds(Band("Z", 0.0, 9.0)) && !read("y", Band("A", 0.0, 9.0)).holds);
        assert_eq!(read("y", Band("A", 0.0, 9.0)).measured, "no such cell");
        assert_eq!(read("x", Band("A", 0.0, 9.0)).measured, "2.00–2.20");
        // Point: ± 10 %, edges included.
        assert!(holds(Point("C", 10.0)) && holds(Point("C", 8.2)) && holds(Point("A", 2.1)));
        assert!(!holds(Point("C", 10.1)) && !holds(Point("C", 8.1)));
        // Ordering: strict, at every shared point; a missing or disjoint scheme fails.
        assert!(!holds(Below("A", "B")), "equal at d = 100");
        assert!(!holds(Below("B", "A")) && !holds(Below("A", "Z")) && !holds(Below("A", "C")));
        assert!(holds(Ratio("B", "A", 1.0, 1.5)) && !holds(Ratio("B", "A", 1.2, 1.5)));
        assert_eq!(
            read("x", Ratio("B", "A", 1.0, 1.5)).measured,
            "B ÷ A = 1.00–1.50"
        );
        // A claim over a timing column is marked, whatever it reads.
        assert!(!read("x", Below("A", "B")).timing);
        assert!(
            read("time (s)", Below("B", "A")).timing
                && read("time (s)", Band("A", 0.0, 1.0)).timing
        );
    }
}
