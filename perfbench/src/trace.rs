//! In-memory span recorder. Spans are recorded only by the benchmark's
//! own code, around calls into the layers' public functions; the
//! program itself is not instrumented. A disabled tracer records
//! nothing and costs one branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` is the index of the enclosing span, or
/// `u32::MAX` for a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

const ROOT: u32 = u32::MAX;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span, passed back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            t0: self.t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Append a forked tracer's spans (their roots stay roots).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(ROOT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
        });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&i| i == open.0) {
            self.open.truncate(pos);
        }
        self.spans[open.0 as usize].end_ns = now;
    }

    /// Record `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Per-name totals: count, summed duration and summed self time
    /// (duration minus the part covered by direct children).
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        summarize(&self.spans)
    }

    /// The spans as JSON lines: `{"name", "start_ns", "end_ns", "parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub median_ns: u64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
        durations.entry(s.name).or_default().push(dur);
    }
    for (name, mut d) in durations {
        d.sort_unstable();
        if let Some(t) = out.get_mut(name) {
            t.median_ns = d[d.len() / 2];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
            },
            Span {
                name: "inner",
                start_ns: 50,
                end_ns: 70,
                parent: 0,
            },
        ];
        let s = summarize(&spans);
        assert_eq!(s["outer"].total_ns, 100);
        assert_eq!(s["outer"].self_ns, 50);
        assert_eq!(s["inner"].count, 2);
        assert_eq!(s["inner"].self_ns, 50);
        assert_eq!(s["inner"].median_ns, 30);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::new(true);
        let a = t.begin("a");
        t.span("b", || ());
        t.end(a);
        t.span("c", || ());
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, ROOT);
        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.spans.is_empty());
    }
}
