//! Spans recorded from the benchmark's side of every layer boundary.
//!
//! The product has no span hooks of its own yet, so the traced pass times
//! the calls *into* each layer and the closures the engine APIs accept
//! (`FrameEngine::process_frame`, `PipelinedCell::run`). Spans live in
//! memory and are written once, when the run ends. The untraced pass never
//! touches this module — the difference between the two passes is the
//! tracing overhead, reported as `trace.overhead_ratio`.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Sentinel parent of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.detect_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The operation (frame or tick) this span belongs to: spans of one
    /// request share it.
    pub frame: u64,
}

/// In-memory span sink, shareable with the worker threads that run the
/// engine's task closures.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer with room for `capacity` spans, so recording does
    /// not reallocate inside timed operations.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (a parent handle for
    /// children recorded later).
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        frame: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            frame,
        };
        // A panic while holding the lock cannot leave a span half-written.
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Opens a span whose end is not known yet; children name the returned
    /// index as their parent and [`Tracer::close`] stamps the end.
    pub fn open(&self, name: &'static str, parent: u32, frame: u64, start: Instant) -> u32 {
        self.record(name, parent, frame, start, start)
    }

    /// Stamps the end of a span opened with [`Tracer::open`].
    pub fn close(&self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Σ duration (seconds) and count of the spans called `name`.
    pub fn total_s(spans: &[Span], name: &str) -> (f64, u64) {
        let mut total = 0u64;
        let mut count = 0u64;
        for s in spans.iter().filter(|s| s.name == name) {
            total += s.end_ns.saturating_sub(s.start_ns);
            count += 1;
        }
        (total as f64 * 1e-9, count)
    }

    /// Writes the spans as one JSON document: a name table plus
    /// `[name, start_ns, end_ns, parent, frame]` rows (`parent` −1 = root).
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut names: Vec<&'static str> = Vec::new();
        let mut body = String::with_capacity(spans.len() * 40);
        for (i, s) in spans.iter().enumerate() {
            let name_idx = match names.iter().position(|n| *n == s.name) {
                Some(i) => i,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                body,
                "[{name_idx},{},{},{parent},{}]{sep}",
                s.start_ns, s.end_ns, s.frame
            );
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        let doc = format!(
            "{{\"workload\":\"{workload}\",\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"frame\"],\n\"names\":[{}],\n\"spans\":[\n{body}]}}\n",
            names.join(",")
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_parent_links_and_totals() {
        let t = Tracer::with_capacity(8);
        let a = Instant::now();
        let op = t.open("op", ROOT, 7, a);
        let b = Instant::now();
        let child = t.record("core.detect_batch", op, 7, a, b);
        t.close(op, b);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[child as usize].parent, op);
        assert_eq!(spans[op as usize].parent, ROOT);
        assert_eq!(spans[op as usize].end_ns, spans[child as usize].end_ns);
        let (_, n) = Tracer::total_s(&spans, "core.detect_batch");
        assert_eq!(n, 1);
        assert_eq!(Tracer::total_s(&spans, "absent"), (0.0, 0));
    }
}
