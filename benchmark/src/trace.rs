//! Spans around the harness's own calls into each layer.
//!
//! A span is (name, start, end, parent, request id). Spans live in memory
//! until the run ends. A span's *self time* is its duration minus its
//! children's. A disabled recorder costs one branch per call, so the
//! untraced repetitions run the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle to an open span; 0 is "no span" (recorder off, or no parent).
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Request (or chunk) the span belongs to.
    pub req: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Count and summed self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
}

impl SelfTime {
    pub fn mean_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

impl Recorder {
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An enabled recorder with room for `capacity` spans, so recording
    /// does not allocate inside timed code. `origin` is shared by the
    /// recorders of concurrent client threads.
    pub fn on(origin: Instant, capacity: usize) -> Self {
        Self {
            enabled: true,
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        if id != 0 {
            let end_ns = self.now_ns();
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    /// Appends another thread's spans, keeping its parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += shift;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(children_ns) {
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// The trace file: span names once, then one
    /// `[name index, start ns, end ns, parent, request]` row per span
    /// (`parent` is the 1-based row of the enclosing span, 0 for none).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = String::with_capacity(self.spans.len() * 40);
        for (i, s) in self.spans.iter().enumerate() {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(at) => at,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                rows,
                "{sep}[{name},{},{},{},{}]",
                s.start_ns, s.end_ns, s.parent, s.req
            );
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \
             \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"], \
             \"names\": [{}], \"spans\": [\n{rows}\n]}}\n",
            names.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::off();
        let id = rec.open("x", 0, 1);
        rec.close(id);
        assert_eq!(id, 0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::on(Instant::now(), 8);
        let parent = rec.open("request", 0, 1);
        let child = rec.open("client.send", parent, 1);
        rec.close(child);
        rec.close(parent);
        // Pin the clock readings so the arithmetic is exact.
        rec.spans[0].start_ns = 100;
        rec.spans[0].end_ns = 1100;
        rec.spans[1].start_ns = 200;
        rec.spans[1].end_ns = 500;
        let st = rec.self_times();
        assert_eq!(st["request"].self_ns, 700);
        assert_eq!(st["client.send"].self_ns, 300);
        assert_eq!(st["client.send"].count, 1);
        let json = rec.to_json("w", 3);
        assert!(json.contains("\"names\": [\"request\", \"client.send\"]"));
        assert!(json.contains("[0,100,1100,0,1],\n[1,200,500,1,1]"));
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Recorder::on(origin, 4);
        let p = a.open("a", 0, 0);
        a.close(p);
        let mut b = Recorder::on(origin, 4);
        let p = b.open("b", 0, 0);
        let c = b.open("b.child", p, 0);
        b.close(c);
        b.close(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 2);
        assert_eq!(a.spans()[1].parent, 0);
    }
}
