//! In-memory spans recorded by the benchmark around its calls into the
//! layers.  Spans are only recorded in traced runs; they are written out
//! when the benchmark ends, and summarized as self time per span name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    attrs: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span recorder.  When disabled, `enter`/`exit` do nothing, so untraced
/// runs carry no span bookkeeping.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans entered from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, attrs: impl FnOnce() -> String) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            attrs: attrs(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (spans close in LIFO order).
    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close in LIFO order");
    }

    /// Self time per span name (duration minus the time covered by child
    /// spans), in seconds, with the number of spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(children);
            let entry = out.entry(span.name).or_default();
            entry.0 += own as f64 * 1e-9;
            entry.1 += 1;
        }
        out
    }

    /// Every recorded span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"attrs\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name,
                span.attrs.replace('\\', "\\\\").replace('"', "\\\""),
                span.start_ns,
                span.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}
