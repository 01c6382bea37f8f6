//! Run reporting: fold the engine's [`Metrics`] into a human table and a
//! machine-readable JSON document.
//!
//! The JSON layer is hand-rolled (the workspace is std-only) and stable:
//! the acceptance tests parse it back, and CI archives it next to the
//! bench JSON. Latencies are reported in microseconds; every
//! [`SyncPhases::named`] phase appears with `p50`/`p99`/`p999`/`count`,
//! whether or not the workload mix exercised it.

use crate::engine::{CountsSnapshot, Metrics};
use crate::plan::PlanConfig;
use obs::trace::json_escape;
use pbs_net::SyncPhases;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Everything a finished run reports.
#[derive(Debug)]
pub struct Report {
    /// Master seed of the run (reprints for replay).
    pub seed: u64,
    /// Offered arrival rate (sessions/second) from the plan.
    pub offered_rate: f64,
    /// Achieved completion rate over the run's wall clock.
    pub achieved_rate: f64,
    /// Wall clock of the whole run, drain included.
    pub elapsed: Duration,
    /// The run's counts, frozen.
    pub counts: CountsSnapshot,
    /// See [`Metrics::peak_inflight`].
    pub peak_inflight: u64,
    /// See [`Metrics::peak_parked`].
    pub peak_parked: u64,
    /// Per-phase `(name, p50, p99, p999, count)`, microseconds.
    pub phases: Vec<(&'static str, u64, u64, u64, u64)>,
    /// Sampled error strings.
    pub errors: Vec<String>,
}

impl Report {
    /// Freeze `metrics` into a report.
    pub fn build(metrics: &Metrics, plan: &PlanConfig, elapsed: Duration) -> Report {
        let counts = metrics.counts.snapshot();
        let phases = SyncPhases::default()
            .named()
            .iter()
            .zip(&metrics.phases)
            .map(|((name, _), hist)| {
                (
                    *name,
                    hist.quantile(0.5) / 1_000,
                    hist.quantile(0.99) / 1_000,
                    hist.quantile(0.999) / 1_000,
                    hist.count(),
                )
            })
            .collect();
        Report {
            seed: plan.seed,
            offered_rate: plan.rate,
            achieved_rate: counts.completed as f64 / elapsed.as_secs_f64().max(1e-9),
            elapsed,
            counts,
            peak_inflight: metrics.peak_inflight.load(Ordering::SeqCst),
            peak_parked: metrics.peak_parked.load(Ordering::SeqCst),
            phases,
            errors: metrics.errors.lock().unwrap().clone(),
        }
    }

    /// The accounting identity every drained run must satisfy.
    pub fn settled(&self) -> bool {
        let c = &self.counts;
        c.started == c.completed + c.failed + c.evicted
    }

    /// The human table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let secs = self.elapsed.as_secs_f64();
        let c = &self.counts;
        out.push_str(&format!(
            "pbs-loadgen: seed {:#x}  offered {:.0}/s  achieved {:.0}/s  elapsed {:.2}s\n",
            self.seed, self.offered_rate, self.achieved_rate, secs
        ));
        out.push_str(&format!(
            "sessions: {} started = {} completed + {} failed + {} evicted  \
             (peak in-flight {}, peak parked {})\n",
            c.started, c.completed, c.failed, c.evicted, self.peak_inflight, self.peak_parked
        ));
        out.push_str(&format!(
            "traffic: {} B in / {} B out ({:.0} B/s in, {:.0} B/s out), \
             {} pushes, {} delta fallbacks\n",
            c.bytes_in,
            c.bytes_out,
            c.bytes_in as f64 / secs.max(1e-9),
            c.bytes_out as f64 / secs.max(1e-9),
            c.pushes,
            c.delta_fallbacks
        ));
        out.push_str(&format!(
            "{:<10} {:>10} {:>10} {:>10} {:>8}\n",
            "phase", "p50 µs", "p99 µs", "p999 µs", "count"
        ));
        for (name, p50, p99, p999, count) in &self.phases {
            out.push_str(&format!(
                "{name:<10} {p50:>10} {p99:>10} {p999:>10} {count:>8}\n"
            ));
        }
        for error in &self.errors {
            out.push_str(&format!("error: {error}\n"));
        }
        out
    }

    /// The machine-readable document.
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"offered_rate\": {:.3},\n  \"achieved_rate\": {:.3},\n  \"elapsed_secs\": {:.6},\n",
            self.offered_rate,
            self.achieved_rate,
            self.elapsed.as_secs_f64()
        ));
        let peaks = [
            ("peak_inflight", self.peak_inflight),
            ("peak_parked", self.peak_parked),
        ];
        for (key, value) in self.counts.fields().into_iter().chain(peaks) {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        }
        out.push_str("  \"phases_us\": {\n");
        for (i, (name, p50, p99, p999, count)) in self.phases.iter().enumerate() {
            let comma = if i + 1 < self.phases.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{name}\": {{\"p50\": {p50}, \"p99\": {p99}, \
                 \"p999\": {p999}, \"count\": {count}}}{comma}\n"
            ));
        }
        out.push_str("  },\n");
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", json_escape(e)))
            .collect();
        out.push_str(&format!("  \"errors\": [{}]\n}}\n", errors.join(",")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_phase_and_the_identity() {
        let metrics = Metrics::default();
        metrics.counts.started.inc(5);
        metrics.counts.completed.inc(3);
        metrics.counts.failed.inc(1);
        metrics.counts.evicted.inc(1);
        let report = Report::build(&metrics, &PlanConfig::default(), Duration::from_secs(2));
        assert!(report.settled());
        let json = report.json();
        for phase in [
            "connect",
            "handshake",
            "estimate",
            "rounds",
            "transfer",
            "delta",
            "total",
        ] {
            assert!(
                json.contains(&format!("\"{phase}\": {{\"p50\"")),
                "phase {phase} missing from JSON:\n{json}"
            );
        }
        assert!(json.contains("\"started\": 5"));
        let table = report.table();
        assert!(table.contains("5 started = 3 completed + 1 failed + 1 evicted"));
    }

    #[test]
    fn a_peer_chosen_error_message_stays_one_json_string() {
        let metrics = Metrics::default();
        let error = "Full/Failed: peer error [internal]: a \"quoted\"\nline\tand tab";
        metrics.errors.lock().unwrap().push(error.into());
        let report = Report::build(&metrics, &PlanConfig::default(), Duration::from_secs(1));
        let json = report.json();
        let escaped = r#""Full/Failed: peer error [internal]: a \"quoted\"\nline\tand tab""#;
        assert!(
            json.contains(&format!("\"errors\": [{escaped}]\n")),
            "{json}"
        );
        assert!(!json.contains('\t'), "a raw tab in a JSON string:\n{json}");
    }
}
