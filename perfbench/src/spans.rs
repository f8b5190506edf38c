//! Bench-side span recording for the traced pass.
//!
//! Spans are recorded around the benchmark's calls into each layer's public
//! functions. Where a layer has no public entry point (replicate consensus
//! and merge are crate-private), the span tree `analyze_with` returns is
//! grafted under the bench span that made the call. Spans stay in memory
//! and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use themis_query::{QueryTrace, TraceSpan};

/// Who opened a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a public call.
    Bench,
    /// Taken from a program trace (`analyze_with`); the program reports
    /// only durations, so children are laid out one after another from
    /// their parent's start.
    Program,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub source: Source,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(String, u64)>,
}

/// The part of `[start, end)` not covered by any child interval (children
/// may overlap each other and may stick out of the parent).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// Per-name totals over every finished request.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Self time in ns, keyed by (source, name).
    pub self_ns: BTreeMap<(bool, String), u64>,
    /// Spans seen, keyed like `self_ns`.
    pub count: BTreeMap<(bool, String), u64>,
    /// Program counters summed over all program spans.
    pub counters: BTreeMap<String, u64>,
    /// Self time of program `execute_parallel` spans under a `replicate`.
    pub replicate_exec_ns: u64,
    /// Times derived from spans rather than measured by one (a layer's
    /// call minus a nested layer timed separately), in ns.
    pub derived_ns: BTreeMap<String, u64>,
    pub requests: u64,
}

impl Totals {
    fn key(source: Source, name: &str) -> (bool, String) {
        (source == Source::Program, name.to_string())
    }

    pub fn self_ns(&self, source: Source, name: &str) -> u64 {
        self.self_ns
            .get(&Self::key(source, name))
            .copied()
            .unwrap_or(0)
    }

    pub fn count(&self, source: Source, name: &str) -> u64 {
        self.count
            .get(&Self::key(source, name))
            .copied()
            .unwrap_or(0)
    }

    /// Mean self time per request, in µs.
    pub fn per_request_us(&self, source: Source, name: &str) -> f64 {
        self.self_ns(source, name) as f64 / 1e3 / self.requests.max(1) as f64
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    pub fn add_derived(&mut self, name: &str, ns: u64) {
        *self.derived_ns.entry(name.to_string()).or_default() += ns;
    }

    pub fn derived(&self, name: &str) -> u64 {
        self.derived_ns.get(name).copied().unwrap_or(0)
    }
}

/// Span recorder for one client thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    open_request: Vec<Span>,
    request: u64,
    next_id: u32,
    kept: Vec<Span>,
    keep_limit: usize,
    pub totals: Totals,
}

impl Recorder {
    /// `keep_limit` bounds the spans kept for the span file; totals always
    /// cover every request.
    pub fn new(origin: Instant, keep_limit: usize) -> Recorder {
        Recorder {
            origin,
            open_request: Vec::new(),
            request: 0,
            next_id: 0,
            kept: Vec::new(),
            keep_limit,
            totals: Totals::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin_request(&mut self, request: u64) {
        debug_assert!(self.open_request.is_empty(), "request left open");
        self.request = request;
    }

    /// Open a top-level bench span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let now = self.now_ns();
        self.open_request.push(Span {
            request: self.request,
            id,
            parent: None,
            source: Source::Bench,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            counters: Vec::new(),
        });
        id
    }

    /// Close a bench span, returning its duration in ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let span = self
            .open_request
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("closing a span of the open request");
        span.end_ns = now;
        now - span.start_ns
    }

    /// Time `f` as a bench span; returns its result and duration in ns.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    /// Graft a program trace under bench span `parent`.
    pub fn graft(&mut self, parent: u32, trace: &QueryTrace) {
        let start = self
            .open_request
            .iter()
            .find(|s| s.id == parent)
            .map(|s| s.start_ns)
            .expect("graft parent belongs to the open request");
        self.graft_children(parent, start, &trace.spans);
    }

    fn graft_children(&mut self, parent: u32, mut cursor: u64, spans: &[TraceSpan]) {
        for span in spans {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            let end = cursor + span.elapsed_us * 1_000;
            self.open_request.push(Span {
                request: self.request,
                id,
                parent: Some(parent),
                source: Source::Program,
                name: span.name.clone(),
                start_ns: cursor,
                end_ns: end,
                counters: span.counters.clone(),
            });
            self.graft_children(id, cursor, &span.children);
            cursor = end;
        }
    }

    /// Finish the open request: fold its self times into the totals and
    /// keep its spans for the span file (up to the limit).
    pub fn end_request(&mut self) {
        let spans = std::mem::take(&mut self.open_request);
        for span in &spans {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            let own = self_time((span.start_ns, span.end_ns), &children);
            let key = Totals::key(span.source, &span.name);
            *self.totals.self_ns.entry(key.clone()).or_default() += own;
            *self.totals.count.entry(key).or_default() += 1;
            for (k, v) in &span.counters {
                *self.totals.counters.entry(k.clone()).or_default() += v;
            }
            let under_replicate = span.parent.is_some_and(|p| {
                spans
                    .iter()
                    .any(|s| s.id == p && s.source == Source::Program && s.name == "replicate")
            });
            if span.source == Source::Program && span.name == "execute_parallel" && under_replicate
            {
                self.totals.replicate_exec_ns += own;
            }
        }
        self.totals.requests += 1;
        if self.kept.len() < self.keep_limit {
            self.kept.extend(spans);
        }
    }

    /// Merge another recorder (another client thread) into this one.
    pub fn absorb(&mut self, other: Recorder) {
        for (k, v) in other.totals.self_ns {
            *self.totals.self_ns.entry(k).or_default() += v;
        }
        for (k, v) in other.totals.count {
            *self.totals.count.entry(k).or_default() += v;
        }
        for (k, v) in other.totals.counters {
            *self.totals.counters.entry(k).or_default() += v;
        }
        for (k, v) in other.totals.derived_ns {
            *self.totals.derived_ns.entry(k).or_default() += v;
        }
        self.totals.replicate_exec_ns += other.totals.replicate_exec_ns;
        self.totals.requests += other.totals.requests;
        self.kept.extend(other.kept);
    }

    /// The kept spans as tab-separated lines, one span a line.
    pub fn span_file(&self) -> String {
        let mut out =
            String::from("request\tid\tparent\tsource\tname\tstart_ns\tend_ns\tcounters\n");
        for s in &self.kept {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let source = match s.source {
                Source::Bench => "bench",
                Source::Program => "program",
            };
            let counters: Vec<String> =
                s.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.request,
                s.id,
                parent,
                source,
                s.name,
                s.start_ns,
                s.end_ns,
                counters.join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
        // Overlapping children count their union once: [10, 40) covers 30.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40)]), 70);
        // A child nested inside another child.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 50), &[(0, 20), (40, 90)]), 20);
        // Children covering everything leave nothing.
        assert_eq!(self_time((10, 50), &[(0, 30), (25, 60)]), 0);
        // Unsorted input.
        assert_eq!(self_time((0, 100), &[(60, 80), (0, 10), (5, 15)]), 65);
    }

    #[test]
    fn grafted_program_spans_nest_sequentially() {
        let leaf = |name: &str, us| TraceSpan {
            name: name.into(),
            elapsed_us: us,
            counters: vec![("rows_scanned".into(), 5)],
            notes: Vec::new(),
            children: Vec::new(),
        };
        let trace = QueryTrace {
            spans: vec![TraceSpan {
                name: "query".into(),
                elapsed_us: 10,
                counters: Vec::new(),
                notes: Vec::new(),
                children: vec![leaf("parse", 2), leaf("route", 3)],
            }],
        };
        let mut rec = Recorder::new(Instant::now(), 100);
        rec.begin_request(1);
        let root = rec.open("session.analyze");
        rec.graft(root, &trace);
        rec.close(root);
        rec.end_request();
        let t = &rec.totals;
        assert_eq!(t.self_ns(Source::Program, "query"), 5_000);
        assert_eq!(t.self_ns(Source::Program, "parse"), 2_000);
        assert_eq!(t.self_ns(Source::Program, "route"), 3_000);
        assert_eq!(t.counter("rows_scanned"), 10);
        assert_eq!(t.requests, 1);
        assert_eq!(rec.span_file().lines().count(), 5);
    }
}
