//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a library layer, so they measure a layer from outside.
//! They stay in memory until the run ends and are then written as a
//! plain span list and as Chrome trace events (`chrome://tracing`,
//! Perfetto). With tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    counts: Vec<(&'static str, u64)>,
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::exit"]
pub struct SpanId(Option<usize>);

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    paused: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            paused: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording; returns whether spans are now
    /// recorded. A traced run pauses every other operation so that it
    /// can compare traced and untraced samples.
    pub fn set_paused(&mut self, paused: bool) -> bool {
        self.paused = paused;
        self.on && !paused
    }

    /// Opens a span of `layer` for operation `op`; its parent is the
    /// innermost span still open.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, op: u64) -> SpanId {
        if !self.on || self.paused {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
            counts: Vec::new(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span and attaches the counts measured at its boundary.
    pub fn exit(&mut self, span: SpanId, counts: &[(&'static str, u64)]) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.counts.extend_from_slice(counts);
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self seconds per layer: each span's duration minus the time its
    /// direct children cover (children run one after another inside
    /// their parent, so their durations add up without overlap).
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes `<stem>.spans.json` (the span list) and
    /// `<stem>.chrome.json` (Chrome trace events) into `dir`.
    pub fn write(&self, dir: &Path, stem: &str, host: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut spans = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.json")),
        )?);
        writeln!(spans, "{{\"host\":{host},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                spans,
                "{}{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"counts\":{{{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.op,
                counts_json(&s.counts),
            )?;
        }
        writeln!(spans, "\n]}}")?;
        spans.flush()?;

        let mut chrome = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.chrome.json")),
        )?);
        writeln!(chrome, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                chrome,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"op\":{}{}{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if s.counts.is_empty() { "" } else { "," },
                counts_json(&s.counts),
            )?;
        }
        writeln!(chrome, "\n]}}")?;
        chrome.flush()
    }
}

fn counts_json(counts: &[(&'static str, u64)]) -> String {
    counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("op", "bench", 0);
        let inner = t.enter("call", "core", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(inner, &[("rounds", 3)]);
        t.exit(outer, &[]);
        let by_layer = t.self_seconds_by_layer();
        assert!(by_layer["core"] >= 0.005);
        assert!(by_layer["bench"] < by_layer["core"]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("op", "bench", 0);
        t.exit(s, &[]);
        assert_eq!(t.len(), 0);
        assert!(t.self_seconds_by_layer().is_empty());
    }
}
