//! In-memory span log for the traced run, written once at the end as
//! Chrome Trace Event JSON (`{"traceEvents": [...]}` of complete `"X"`
//! events, loadable in `chrome://tracing` and Perfetto).
//!
//! Unlike the telemetry registry's merged span tree, every span here is one
//! activation with its real start time: a traced run yields one timeline
//! row per block (or round, or window) with its layer children nested
//! inside it, and each set-up as its own span ahead of steady state.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded activation.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Track: 1 = set-up, 2 = steady state.
    tid: u8,
    start_us: f64,
    dur_us: f64,
    /// Ordinal of the block/round/window (or set-up) the span belongs to.
    unit: u64,
}

/// Collects spans relative to a fixed origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Track of set-up spans.
pub const SETUP: u8 = 1;
/// Track of steady-state spans.
pub const STEADY: u8 = 2;

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Records a span that ran from `start` for `dur_s` seconds.
    pub fn record(&mut self, name: &'static str, tid: u8, unit: u64, start: Instant, dur_s: f64) {
        let start_us = start
            .checked_duration_since(self.origin)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6);
        self.spans.push(Span {
            name,
            tid,
            start_us,
            dur_us: dur_s * 1e6,
            unit,
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` before anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders every span as Chrome Trace Event JSON.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 110);
        out.push_str("{\"traceEvents\": [");
        for (tid, label) in [(SETUP, "setup"), (STEADY, "steady state")] {
            let _ = write!(
                out,
                "\n  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{label}\"}}}}"
            );
            if tid == SETUP || !self.spans.is_empty() {
                out.push(',');
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = write!(
                out,
                "\n  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"unit\": {}}}}}{sep}",
                s.name, s.tid, s.start_us, s.dur_us, s.unit
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_one_event_per_span() {
        let mut log = SpanLog::default();
        let t = Instant::now();
        log.record("setup", SETUP, 0, t, 0.5);
        log.record("block", STEADY, 1, t, 0.001);
        let json = log.chrome_json();
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"name\": \"block\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
