//! Call spans recorded around every call the benchmark makes into a layer.
//!
//! Each transaction attempt opens a root span (`workloads.txn`); every call
//! into `ssi-core` or `ssi-server` inside it is a child span. A span has a
//! name, start, end, parent and the attempt id shared by all spans of one
//! attempt. When an attempt ends its spans are folded into per-call
//! statistics (count, self time, duration histogram), and the first
//! [`KEEP_SPANS`] spans of each client are kept in memory and written out
//! when the run ends. Folding per attempt bounds memory: a traced SmallBank
//! run makes tens of millions of spans.
//!
//! The same code serves the untraced run: with tracing off, [`Tracer::call`]
//! is one branch around the call.

use std::io::Write;
use std::time::Instant;

use crate::hist::Hist;

/// Spans kept per client for the written trace.
pub const KEEP_SPANS: usize = 4_000;

/// Span names, one per layer boundary the benchmark calls across.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One transaction attempt, from its first call to the return of its
    /// last (`workloads` layer).
    Txn,
    CoreBegin,
    CoreGet,
    CoreGetForUpdate,
    CorePut,
    CoreScan,
    CoreCommit,
    ServerBegin,
    ServerGet,
    ServerPut,
    ServerCommit,
}

impl Name {
    pub const ALL: [Name; 11] = [
        Name::Txn,
        Name::CoreBegin,
        Name::CoreGet,
        Name::CoreGetForUpdate,
        Name::CorePut,
        Name::CoreScan,
        Name::CoreCommit,
        Name::ServerBegin,
        Name::ServerGet,
        Name::ServerPut,
        Name::ServerCommit,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Txn => "workloads.txn",
            Name::CoreBegin => "core.begin",
            Name::CoreGet => "core.get",
            Name::CoreGetForUpdate => "core.get_for_update",
            Name::CorePut => "core.put",
            Name::CoreScan => "core.scan",
            Name::CoreCommit => "core.commit",
            Name::ServerBegin => "server.begin",
            Name::ServerGet => "server.get",
            Name::ServerPut => "server.put",
            Name::ServerCommit => "server.commit",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Attempt id shared by every span of one attempt.
    pub txn: u64,
    /// Index of the parent span within the same attempt; `None` for the root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and a
/// child sticking out of its parent is clipped to the parent).
#[cfg(test)]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out = Vec::new();
    self_times_into(spans, &mut Vec::new(), &mut out);
    out
}

/// [`self_times`] into `out`, with `kids` as scratch space, so that folding
/// an attempt allocates nothing once the buffers have grown.
fn self_times_into(spans: &[Span], kids: &mut Vec<(usize, u64, u64)>, out: &mut Vec<u64>) {
    kids.clear();
    kids.extend(
        spans
            .iter()
            .filter_map(|s| Some((s.parent?, s.start_ns, s.end_ns))),
    );
    kids.sort_unstable();
    out.clear();
    out.extend(spans.iter().map(|s| s.end_ns - s.start_ns));
    for group in kids.chunk_by(|a, b| a.0 == b.0) {
        let parent = &spans[group[0].0];
        let mut reach = parent.start_ns;
        for &(_, start, end) in group {
            let (start, end) = (start.max(reach), end.min(parent.end_ns));
            if end > start {
                out[group[0].0] -= end - start;
                reach = end;
            }
        }
    }
}

/// Per-name statistics folded from finished attempts.
#[derive(Clone, Default)]
pub struct CallStats {
    pub count: u64,
    pub self_ns: u64,
    /// Span durations.
    pub duration: Hist,
}

impl CallStats {
    fn merge(&mut self, other: &CallStats) {
        self.count += other.count;
        self.self_ns += other.self_ns;
        self.duration.merge(&other.duration);
    }

    pub fn self_us_mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Everything a traced phase measured from the benchmark's side.
#[derive(Clone, Default)]
pub struct TraceStats {
    pub calls: [CallStats; Name::ALL.len()],
    pub commit_calls_failed: u64,
    pub scan_rows: u64,
}

impl TraceStats {
    pub fn merge(&mut self, other: &TraceStats) {
        for (a, b) in self.calls.iter_mut().zip(other.calls.iter()) {
            a.merge(b);
        }
        self.commit_calls_failed += other.commit_calls_failed;
        self.scan_rows += other.scan_rows;
    }

    pub fn call(&self, name: Name) -> &CallStats {
        &self.calls[name.index()]
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    client: u64,
    attempt: u64,
    open: Vec<Span>,
    kids: Vec<(usize, u64, u64)>,
    selfs: Vec<u64>,
    kept: Vec<Span>,
    pub stats: TraceStats,
}

impl Tracer {
    pub fn new(client: usize, epoch: Instant) -> Self {
        Tracer {
            on: false,
            epoch,
            client: client as u64,
            attempt: 0,
            open: Vec::with_capacity(16),
            kids: Vec::new(),
            selfs: Vec::new(),
            kept: Vec::new(),
            stats: TraceStats::default(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of an attempt; tracing stays on for the attempt
    /// iff `on`.
    pub fn begin_attempt(&mut self, on: bool) {
        self.on = on;
        if on {
            self.attempt += 1;
            self.open.clear();
            let start = self.now();
            self.open.push(Span {
                name: Name::Txn,
                txn: (self.client << 48) | self.attempt,
                parent: None,
                start_ns: start,
                end_ns: start,
            });
        }
    }

    /// Runs `f` as a child span of the open attempt.
    #[inline]
    pub fn call<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let result = f();
        let end = self.now();
        self.open.push(Span {
            name,
            txn: self.open[0].txn,
            parent: Some(0),
            start_ns: start,
            end_ns: end,
        });
        result
    }

    pub fn commit_failed(&mut self) {
        if self.on {
            self.stats.commit_calls_failed += 1;
        }
    }

    pub fn scanned(&mut self, rows: usize) {
        if self.on {
            self.stats.scan_rows += rows as u64;
        }
    }

    /// Closes the root span and folds the attempt into the statistics.
    pub fn end_attempt(&mut self) {
        if !self.on {
            return;
        }
        self.open[0].end_ns = self.now();
        self_times_into(&self.open, &mut self.kids, &mut self.selfs);
        for (span, &self_ns) in self.open.iter().zip(&self.selfs) {
            let c = &mut self.stats.calls[span.name.index()];
            c.count += 1;
            c.self_ns += self_ns;
            c.duration.record(span.end_ns - span.start_ns);
        }
        if self.kept.len() + self.open.len() <= KEEP_SPANS {
            self.kept.extend_from_slice(&self.open);
        }
    }

    pub fn kept(&self) -> &[Span] {
        &self.kept
    }
}

/// Writes spans as CSV (`txn,name,parent,start_ns,end_ns`; `parent` is the
/// index of the parent span within its attempt, empty for a root).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "txn,name,parent,start_ns,end_ns")?;
    for s in spans {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{},{},{},{},{}",
            s.txn,
            s.name.label(),
            parent,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            txn: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    /// A hand-built tree:
    ///
    /// ```text
    /// 0 txn     [0, 100)
    /// 1   begin [ 5,  10)
    /// 2   get   [10,  30)   child 4 covers [12, 18), child 5 [15, 25)
    /// 3   put   [40,  45)
    /// 4     x   [12,  18)
    /// 5     y   [15,  25)   overlaps x: the union [12, 25) counts once
    /// 6   commit[90, 110)   sticks out of the root: clipped to [90, 100)
    /// ```
    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(Name::Txn, None, 0, 100),
            span(Name::CoreBegin, Some(0), 5, 10),
            span(Name::CoreGet, Some(0), 10, 30),
            span(Name::CorePut, Some(0), 40, 45),
            span(Name::CoreScan, Some(2), 12, 18),
            span(Name::CoreScan, Some(2), 15, 25),
            span(Name::CoreCommit, Some(0), 90, 110),
        ];
        let selfs = self_times(&spans);
        // Root: 100 minus begin 5, get 20, put 5, commit clipped to 10.
        assert_eq!(selfs[0], 100 - 5 - 20 - 5 - 10);
        assert_eq!(selfs[1], 5);
        // get: 20 minus the union [12, 25) of its children.
        assert_eq!(selfs[2], 20 - 13);
        assert_eq!(selfs[3], 5);
        assert_eq!(selfs[4], 6);
        assert_eq!(selfs[5], 10);
        assert_eq!(selfs[6], 20);
    }

    #[test]
    fn nested_children_are_not_subtracted_from_the_grandparent() {
        let spans = [
            span(Name::Txn, None, 0, 50),
            span(Name::ServerGet, Some(0), 10, 40),
            span(Name::CoreGet, Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10]);
    }

    #[test]
    fn folded_attempts_sum_self_time_per_name() {
        let mut t = Tracer::new(1, Instant::now());
        for _ in 0..3 {
            t.begin_attempt(true);
            t.call(Name::CoreBegin, || std::hint::black_box(1));
            t.call(Name::CoreCommit, || std::hint::black_box(2));
            t.end_attempt();
        }
        t.begin_attempt(false);
        t.call(Name::CoreBegin, || ());
        t.end_attempt();
        let txn = t.stats.call(Name::Txn);
        let begin = t.stats.call(Name::CoreBegin);
        let commit = t.stats.call(Name::CoreCommit);
        assert_eq!((txn.count, begin.count, commit.count), (3, 3, 3));
        assert_eq!(
            txn.self_ns + begin.self_ns + commit.self_ns,
            t.kept()
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.end_ns - s.start_ns)
                .sum::<u64>()
        );
        assert_eq!(t.kept().len(), 9);
        assert!(t.kept().iter().all(|s| s.txn >> 48 == 1));
    }
}
