//! In-memory spans recorded around calls into the program's layers: name,
//! start, end, parent and query id. They are written out when the run
//! ends, and a layer's self time is its span time minus the part its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `query.verify`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (equal to the start while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The query the span belongs to.
    pub query: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: Option<u32>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, query);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Total self time per span name, in nanoseconds. Children of one
    /// span run one after another, so their durations simply add up.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.query.map(u64::from)),
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.open("root", None, Some(1));
        t.time("child", Some(root), Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(root);
        let st = t.self_times();
        assert!(st["child"] >= 5_000_000);
        assert!(st["root"] < t.spans()[root].dur_ns() - 4_000_000);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0"));
    }
}
