//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the workspace crates; nothing inside the program is timed. Each span
//! keeps its name, layer (the crate it times), start, end, the span that
//! was open on the same thread when it started (its parent), and the id
//! of the meeting, query or peer it belongs to. Spans stay in memory and
//! are written out when the run ends.
//!
//! A layer's self time is the sum of its spans' durations minus the time
//! their child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The layers spans are attributed to: the workspace crates the
/// benchmark calls into.
pub const LAYERS: [&str; 10] = [
    "jxp-core",
    "jxp-pagerank",
    "jxp-p2pnet",
    "jxp-pool",
    "jxp-wire",
    "jxp-node",
    "jxp-store",
    "jxp-serve",
    "jxp-segstore",
    "jxp-webgraph",
];

/// Layer of a root span whose self time no crate call explains (the
/// benchmark's own glue between calls, and payload teardown).
pub const UNATTRIBUTED: &str = "unattributed";

#[derive(Debug, Clone)]
struct SpanRec {
    lane: u8,
    name: &'static str,
    layer: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static LANE: Cell<u8> = const { Cell::new(0) };
}

/// Tag the spans this thread records with `lane`. Lane 0 (the default)
/// is the thread whose wall time the layer breakdown explains; other
/// lanes (a load generator beside it) count in totals only.
pub fn set_lane(lane: u8) {
    LANE.with(|l| l.set(lane));
}

/// Span recorder. A disabled tracer runs the closures and records
/// nothing, so the same code path measures tracing overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans.lock().expect("span recorder poisoned")
    }

    /// Run `f` inside a span; returns its result.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span_id(layer, name, op, f).0
    }

    /// [`Tracer::span`], also returning the span's index (for
    /// [`Tracer::child`]); `usize::MAX` when disabled.
    pub fn span_id<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        if !self.enabled {
            return (f(), usize::MAX);
        }
        let parent = OPEN.with(|s| s.borrow().last().copied());
        let id = {
            let mut spans = self.lock();
            spans.push(SpanRec {
                lane: LANE.with(Cell::get),
                name,
                layer,
                op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        OPEN.with(|s| s.borrow_mut().push(id));
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        OPEN.with(|s| s.borrow_mut().pop());
        let mut spans = self.lock();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        (out, id)
    }

    /// Record an aggregate child of span `parent`: `total_ns` of work
    /// timed in many small pieces (too many to keep one span each). It
    /// is stored as one span starting with its parent.
    pub fn child(&self, parent: usize, layer: &'static str, name: &'static str, total_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut spans = self.lock();
        let (lane, op, start) = (spans[parent].lane, spans[parent].op, spans[parent].start_ns);
        spans.push(SpanRec {
            lane,
            name,
            layer,
            op,
            parent: Some(parent),
            start_ns: start,
            end_ns: start + total_ns,
        });
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Total duration (seconds) and count of spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let spans = self.lock();
        let mut ns = 0u64;
        let mut n = 0u64;
        for s in spans.iter().filter(|s| s.name == name) {
            ns += s.end_ns - s.start_ns;
            n += 1;
        }
        (ns as f64 * 1e-9, n)
    }

    /// Self time (seconds) per layer on lane 0: each span's duration
    /// minus the durations of its direct children.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, &c) in spans.iter().zip(&child_ns).filter(|(s, _)| s.lane == 0) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *by_layer.entry(s.layer).or_default() += own as f64 * 1e-9;
        }
        by_layer
    }

    /// Write every span as one tab-separated line:
    /// `id parent lane op layer name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.lock();
        let mut out = String::from("id\tparent\tlane\top\tlayer\tname\tstart_ns\tend_ns\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.lane, s.op, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
