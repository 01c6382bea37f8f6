//! The traced pass's span recorder. Spans are recorded from the
//! benchmark's own files, around calls into each layer's public functions;
//! they are kept in memory and written out when the run ends.
//!
//! A span has a name (`<module>.<call>`), a start and an end, the span that
//! caused it (its parent) and the id of the session it belongs to. A
//! layer's *self time* is its span's duration minus the part its child
//! spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub session: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One session's spans, summed by name (milliseconds).
#[derive(Debug, Clone, Default)]
pub struct SessionSpans {
    /// Duration of the session's root span.
    pub total_ms: f64,
    /// The root span's self time: what no named child span covers.
    pub self_ms: f64,
    /// Total duration per child span name.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Duration of the first span of each name.
    pub first: BTreeMap<&'static str, f64>,
}

impl SessionSpans {
    pub fn ms(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Sum over every span whose name starts with `prefix`.
    pub fn ms_prefixed(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ms)| ms)
            .sum()
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    /// With tracing off, `enter`/`exit` read no clock and record nothing —
    /// the spans-off replay measures what the spans themselves cost.
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    session: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            session: 0,
        }
    }

    /// Start a new session: later spans carry the next session id.
    pub fn next_session(&mut self) -> u32 {
        self.session += 1;
        self.session
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(u32::MAX);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            session: self.session,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must nest");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Run `f` inside a leaf span (one with no child spans).
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// The sessions whose root span is called `root_name`, in order, each
    /// summarized by span name.
    pub fn sessions(&self, root_name: &str) -> Vec<SessionSpans> {
        let own = self.self_times_ns();
        let mut out: Vec<SessionSpans> = Vec::new();
        let mut current: Option<(u32, SessionSpans)> = None;
        let ms = |ns: u64| ns as f64 / 1e6;
        for (span, &self_ns) in self.spans.iter().zip(&own) {
            if span.parent.is_none() {
                out.extend(current.take().map(|(_, s)| s));
                if span.name == root_name {
                    current = Some((
                        span.session,
                        SessionSpans {
                            total_ms: ms(span.duration_ns()),
                            self_ms: ms(self_ns),
                            ..SessionSpans::default()
                        },
                    ));
                }
                continue;
            }
            if let Some((session, summary)) = &mut current {
                if span.session == *session {
                    *summary.by_name.entry(span.name).or_default() += ms(span.duration_ns());
                    summary
                        .first
                        .entry(span.name)
                        .or_insert(ms(span.duration_ns()));
                }
            }
        }
        out.extend(current.map(|(_, s)| s));
        out
    }

    /// Every individual duration of the spans called `name`, in
    /// microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// The span dump: at most `cap` spans (the head of the run), each with
    /// its self time.
    pub fn to_json(&self, cap: usize) -> Json {
        let own = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .take(cap)
            .enumerate()
            .map(|(id, (s, &self_ns))| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("session", Json::Num(s.session as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("recorded", Json::Num(self.spans.len() as f64)),
            ("written", Json::Num(self.spans.len().min(cap) as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(true);
        tr.next_session();
        let root = tr.enter("session");
        tr.leaf("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let mid = tr.enter("b");
        tr.leaf("a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        tr.exit(mid);
        tr.exit(root);
        let spans = &tr.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own = tr.self_times_ns();
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        assert_eq!(own[1], spans[1].duration_ns());
        let sessions = tr.sessions("session");
        assert_eq!(sessions.len(), 1);
        assert!(
            sessions[0].ms("a") >= 3.0,
            "both `a` spans fold into one entry"
        );
        assert!(sessions[0].first["a"] >= 2.0 && sessions[0].first["a"] < sessions[0].ms("a"));
        assert_eq!(
            sessions[0].ms_prefixed(""),
            sessions[0].ms("a") + sessions[0].ms("b")
        );
        assert!(tr.sessions("other").is_empty());
        assert_eq!(tr.durations_us("a").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.enter("x");
        tr.exit(open);
        assert_eq!(tr.leaf("y", || 7), 7);
        assert!(tr.spans.is_empty());
    }
}
