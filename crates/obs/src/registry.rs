//! Named metric registry with Prometheus text-exposition rendering.
//!
//! A [`Registry`] owns every counter, gauge and histogram by
//! `(family name, label set)` and renders them in the Prometheus text format
//! (counters as `counter`, histograms as `summary` with fixed quantiles).
//! Registration is idempotent: asking for an existing `(name, labels)` pair
//! returns a handle to the *same* underlying metric, so a store that is
//! replaced at runtime keeps its counter continuity.

use std::fmt::Write as _;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};

use crate::hist::Histogram;

/// A monotonically increasing counter handle.
///
/// Dereferences to the underlying [`AtomicU64`], so existing code holding
/// `&AtomicU64` accessors keeps working unchanged after a field migrates to
/// `Counter`.
///
/// `Counter::default()` is one not attached to any registry, at zero.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl Deref for Counter {
    type Target = AtomicU64;
    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// A gauge holding an `f64` (stored as bits in an atomic; the all-zero
/// bits are 0.0, so `Gauge::default()` is one not attached to any registry,
/// at 0.0).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// Add `delta` (negative to subtract): a level several threads move.
    #[inline]
    pub fn add(&self, delta: f64) {
        let sum = |bits| Some((f64::from_bits(bits) + delta).to_bits());
        let _ = self.0.fetch_update(Relaxed, Relaxed, sum);
    }

    /// Current value.
    #[inline]
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    /// Multiplier applied to raw histogram values when rendering (e.g.
    /// `1e-9` renders nanosecond samples as seconds).
    scale: f64,
    metric: Metric,
}

/// Quantiles rendered for every histogram family.
const RENDERED_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// A registry of named metrics, rendered on demand.
#[derive(Default)]
pub struct Registry {
    entries: RwLock<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.read().unwrap();
        f.debug_struct("Registry")
            .field("metrics", &entries.len())
            .finish()
    }
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lookup<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        pick: impl Fn(&Metric) -> Option<T>,
    ) -> Option<T> {
        let entries = self.entries.read().unwrap();
        entries
            .iter()
            .find(|e| {
                e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels
                        .iter()
                        .zip(labels.iter())
                        .all(|((k0, v0), (k1, v1))| k0 == k1 && v0 == v1)
            })
            .and_then(|e| pick(&e.metric))
    }

    /// Register (or fetch) a counter. `name` should follow Prometheus
    /// conventions and end in `_total`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        if let Some(c) = self.lookup(name, labels, |m| match m {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        }) {
            return c;
        }
        let c = Counter::default();
        self.push(name, help, labels, 1.0, Metric::Counter(c.clone()));
        c
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        if let Some(g) = self.lookup(name, labels, |m| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        }) {
            return g;
        }
        let g = Gauge::default();
        self.push(name, help, labels, 1.0, Metric::Gauge(g.clone()));
        g
    }

    /// Register (or fetch) a histogram. Raw recorded values are multiplied by
    /// `scale` at render time (pass `1e-9` for nanosecond samples rendered as
    /// seconds, `1.0` for dimensionless values).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        scale: f64,
    ) -> Arc<Histogram> {
        if let Some(h) = self.lookup(name, labels, |m| match m {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        }) {
            return h;
        }
        let h = Arc::new(Histogram::new());
        self.push(name, help, labels, scale, Metric::Histogram(h.clone()));
        h
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], scale: f64, metric: Metric) {
        let mut entries = self.entries.write().unwrap();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            scale,
            metric,
        });
    }

    /// Every distinct metric family name currently registered, in first-seen
    /// order (used by the docs-catalog lint).
    pub fn families(&self) -> Vec<String> {
        let entries = self.entries.read().unwrap();
        let mut out: Vec<String> = Vec::new();
        for e in entries.iter() {
            if !out.iter().any(|n| n == &e.name) {
                out.push(e.name.clone());
            }
        }
        out
    }

    /// Render every metric in the Prometheus text-exposition format.
    ///
    /// Counters render as `counter` families, gauges as `gauge`, histograms
    /// as `summary` families (quantiles 0.5/0.9/0.99/0.999 plus `_sum`,
    /// `_count` and a companion `_max` gauge). `# HELP`/`# TYPE` headers are
    /// emitted once per family, before its first sample.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.read().unwrap();
        let mut out = String::new();
        let mut done: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if done.contains(&e.name.as_str()) {
                continue;
            }
            done.push(&e.name);
            let family: Vec<&Entry> = entries.iter().filter(|x| x.name == e.name).collect();
            render_family(&mut out, &e.name, &family);
        }
        out
    }
}

/// Declares a table of counters once. From one `name: "help"` list it
/// stamps the live struct of [`Counter`]s (whose `Default` is unattached:
/// every counter at zero, in no registry), its `Copy` snapshot,
/// `registered` — each counter in a [`Registry`] as `{prefix}{name}_total`
/// with the given labels and its help string, which is also the field's
/// doc — `snapshot`, and the snapshot's `fields`, its `(name, value)`
/// pairs in declaration order. A counter cannot exist in one of these and
/// be missing from another.
///
/// ```
/// obs::counters! {
///     /// One link's counters.
///     pub struct LinkStats => LinkSnapshot {
///         syncs: "Syncs attempted.",
///         /// Framing included.
///         bytes: "Wire bytes sent.",
///     }
/// }
///
/// let reg = obs::Registry::new();
/// let link = LinkStats::registered(&reg, "demo_", &[("peer", "a")]);
/// link.bytes.inc(42);
/// assert_eq!(link.snapshot().fields(), [("syncs", 0), ("bytes", 42)]);
/// assert!(reg.render_prometheus().contains("demo_bytes_total{peer=\"a\"} 42"));
/// assert_eq!(LinkStats::default().snapshot(), LinkSnapshot::default());
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $stats:ident => $snapshot:ident {
            $($(#[$doc:meta])* $name:ident: $help:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $stats {
            $(#[doc = $help] $(#[$doc])* pub $name: $crate::Counter,)*
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($stats), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snapshot {
            $(#[doc = $help] $(#[$doc])* pub $name: u64,)*
        }

        impl $stats {
            /// Every counter registered in `metrics` as
            /// `{prefix}{name}_total` with `labels`. Registration is
            /// idempotent: the same `(prefix, labels)` again (a store
            /// replaced at runtime) resumes the same counters.
            $vis fn registered(
                metrics: &$crate::Registry,
                prefix: &str,
                labels: &[(&str, &str)],
            ) -> $stats {
                $stats {
                    $($name: metrics.counter(
                        &format!("{prefix}{}_total", stringify!($name)),
                        $help,
                        labels,
                    ),)*
                }
            }

            /// Copy every counter.
            $vis fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($name: self.$name.get(),)*
                }
            }
        }

        impl $snapshot {
            /// The fields as `(name, value)` pairs, in declaration order.
            $vis fn fields(&self) -> [(&'static str, u64); [$(stringify!($name)),*].len()] {
                [$((stringify!($name), self.$name),)*]
            }
        }
    };
}

fn render_family(out: &mut String, name: &str, family: &[&Entry]) {
    let kind = match family[0].metric {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "summary",
    };
    let _ = writeln!(out, "# HELP {name} {}", escape_help(&family[0].help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for e in family {
        match &e.metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{name}{} {}", label_str(&e.labels, None), c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    label_str(&e.labels, None),
                    fmt_f64(g.get())
                );
            }
            Metric::Histogram(h) => {
                for q in RENDERED_QUANTILES {
                    let v = h.quantile(q) as f64 * e.scale;
                    let labels = label_str(&e.labels, Some(q));
                    let _ = writeln!(out, "{name}{labels} {}", fmt_f64(v));
                }
                let ls = label_str(&e.labels, None);
                let _ = writeln!(out, "{name}_sum{ls} {}", fmt_f64(h.sum() as f64 * e.scale));
                let _ = writeln!(out, "{name}_count{ls} {}", h.count());
                let _ = writeln!(out, "{name}_max{ls} {}", fmt_f64(h.max() as f64 * e.scale));
            }
        }
    }
}

fn label_str(labels: &[(String, String)], quantile: Option<f64>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(q) = quantile {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "quantile=\"{}\"", fmt_f64(q));
    }
    out.push('}');
    out
}

fn fmt_f64(v: f64) -> String {
    // Prometheus accepts any Go-parseable float; Rust's shortest-roundtrip
    // `{}` output is compatible. Keep integers integral for readability.
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotent_registration_shares_state() {
        let r = Registry::new();
        let a = r.counter("pbs_test_total", "help", &[("store", "s1")]);
        let b = r.counter("pbs_test_total", "help", &[("store", "s1")]);
        a.inc(3);
        b.inc(4);
        assert_eq!(a.get(), 7);
        // Different label set => different counter.
        let c = r.counter("pbs_test_total", "help", &[("store", "s2")]);
        assert_eq!(c.get(), 0);
        assert_eq!(r.families(), vec!["pbs_test_total".to_string()]);
    }

    #[test]
    fn renders_prometheus_text() {
        let r = Registry::new();
        r.counter("pbs_x_total", "Things.", &[]).inc(5);
        let g = r.gauge("pbs_g", "A gauge.", &[("store", "default")]);
        g.set(3.5);
        g.add(-2.0);
        g.add(1.0);
        let h = r.histogram("pbs_lat_seconds", "Latency.", &[], 1e-9);
        h.record(1_000_000); // 1ms in ns
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE pbs_x_total counter"), "{text}");
        assert!(text.contains("pbs_x_total 5"), "{text}");
        assert!(text.contains("pbs_g{store=\"default\"} 2.5"), "{text}");
        assert!(text.contains("# TYPE pbs_lat_seconds summary"), "{text}");
        assert!(text.contains("pbs_lat_seconds_count 1"), "{text}");
        assert!(text.contains("quantile=\"0.5\""), "{text}");
    }
}
