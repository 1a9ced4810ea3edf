//! The benchmark's own span recorder for the traced pipeline replay.
//!
//! Spans are opened and closed from the benchmark's code around each adapter
//! call — nothing inside the program is instrumented — kept in memory, and
//! written out as ndjson when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    /// The span that was open when this one opened (0 for a request's root).
    pub parent: u32,
    /// Shared by every span of one replayed request.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What [`Recorder::self_times`] adds up.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Total self time in ns per `(root span name, span name)`.
    pub total_ns: BTreeMap<(&'static str, &'static str), u64>,
    /// How many requests each root span name had.
    pub requests: BTreeMap<&'static str, u64>,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.  With none open this is the
    /// root of a new request.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let parent = self.open.last().copied().unwrap_or(0);
        if parent == 0 {
            self.request += 1;
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// The position to hand [`Recorder::self_times`] to count only the spans
    /// recorded from now on.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per stage over the spans recorded since `mark`.  A span's
    /// self time is its duration minus what its children cover.
    pub fn self_times(&self, mark: usize) -> SelfTimes {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                covered[span.parent as usize - 1] += span.duration_ns();
            }
        }
        let mut roots: BTreeMap<u32, &'static str> = BTreeMap::new();
        let mut times = SelfTimes::default();
        for span in &self.spans[mark..] {
            if span.parent == 0 {
                roots.insert(span.request, span.name);
                *times.requests.entry(span.name).or_default() += 1;
            }
            let root = roots.get(&span.request).copied().unwrap_or(span.name);
            *times.total_ns.entry((root, span.name)).or_default() +=
                span.duration_ns() - covered[span.id as usize - 1].min(span.duration_ns());
        }
        times
    }

    /// One JSON object per span: `name`, `id`, `parent`, `request`,
    /// `start_ns`, `end_ns` (ns since the recorder was created).
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_their_parent() {
        let mut rec = Recorder::new();
        for _ in 0..2 {
            let root = rec.open("request");
            let a = rec.open("a");
            let inner = rec.open("inner");
            rec.close(inner);
            rec.close(a);
            let b = rec.open("b");
            rec.close(b);
            rec.close(root);
        }
        // Make durations known: request 10, a 6 (inner 4), b 3.
        for chunk in rec.spans.chunks_mut(4) {
            let base = chunk[0].start_ns;
            let set = |s: &mut Span, from, to| (s.start_ns, s.end_ns) = (base + from, base + to);
            set(&mut chunk[0], 0, 10);
            set(&mut chunk[1], 0, 6);
            set(&mut chunk[2], 1, 5);
            set(&mut chunk[3], 6, 9);
        }
        let SelfTimes {
            total_ns: totals,
            requests,
        } = rec.self_times(0);
        assert_eq!(requests["request"], 2);
        assert_eq!(totals[&("request", "request")], 2); // 10 - 6 - 3, twice
        assert_eq!(totals[&("request", "a")], 4);
        assert_eq!(totals[&("request", "inner")], 8);
        assert_eq!(totals[&("request", "b")], 6);
        assert_eq!(rec.spans[2].parent, rec.spans[1].id);
        assert_eq!(rec.spans[4].request, 2);
        // Only the second request after a mark.
        let SelfTimes {
            total_ns: totals,
            requests,
        } = rec.self_times(4);
        assert_eq!(requests["request"], 1);
        assert_eq!(totals[&("request", "inner")], 4);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = Recorder::new();
        let outer = rec.open("outer");
        let _inner = rec.open("inner");
        rec.close(outer);
    }
}
