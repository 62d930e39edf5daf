//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is named `<layer>.<call>`, where the layer is the workspace
//! crate the call goes into (`net`, `lmac`, `data`, `analytic`, `core`,
//! `sim`, `dirqd`) or `bench` for the benchmark's own phases. Spans are
//! kept in memory and written as JSON lines when the run ends; a span's
//! self time is its duration minus the part of it its children cover.
//! With tracing off every call is a no-op, so untraced runs pay nothing.

use std::io::Write;
use std::time::Instant;

/// Index of a recorded span (`None` when tracing is off).
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    request: Option<u64>,
    thread: u32,
}

/// One thread's span recorder. Recorders for other threads are made
/// with [`Tracer::fork`] and merged back with [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), thread: 0, spans: Vec::new(), stack: Vec::new() }
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer { on: self.on, origin: self.origin, thread, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: None,
            thread: self.thread,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Some(id)
    }

    /// Close `span` (and anything still open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span else { return };
        let now = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Mark a span as belonging to one serve request.
    pub fn set_request(&mut self, span: SpanId, request: u64) {
        if let Some(id) = span {
            self.spans[id].request = Some(request);
        }
    }

    /// Record a finished child of `parent` from a measured duration,
    /// laid out from `start` seconds after the clock origin.
    pub fn record(&mut self, name: &'static str, start: f64, secs: f64, parent: SpanId) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start,
            end: start + secs,
            parent,
            request: None,
            thread: self.thread,
        });
    }

    /// Start time (seconds since the origin) of a span.
    pub fn start_of(&self, span: SpanId) -> f64 {
        span.map_or(0.0, |id| self.spans[id].start)
    }

    /// Merge another thread's spans; its root spans become children of
    /// `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: SpanId) {
        let offset = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            self.spans.push(s);
        }
    }

    /// Total self time per layer, in first-seen order.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let self_s = (s.end - s.start) - covered(kids, s.start, s.end);
            match totals.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, t)) => *t += self_s,
                None => totals.push((layer, self_s)),
            }
        }
        totals
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \
                 \"parent\": {parent}, \"request\": {request}, \"thread\": {}}}",
                s.name, s.start, s.end, s.thread
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite span times"));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        let mut iv = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)];
        assert_eq!(covered(&mut iv, 0.0, 10.0), 4.0);
        assert_eq!(covered(&mut iv, 0.0, 2.5), 1.5);
    }
}
