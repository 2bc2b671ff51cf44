//! `outofcore-pr`: peers stood up against a disk-backed global graph.
//!
//! A synthetic crawl (the same link formula as `bench_segment`, salted
//! with the seed) is streamed into `jxp_segstore` segment containers by
//! a `SegmentWriter`, then opened with a resident budget below the
//! working set. Every repetition opens the directory cold and builds a
//! fixed set of peers with `JxpPeer::from_source`: contiguous fragments
//! (PageRank-heavy) and strided fragments (every segment faulted). No
//! meetings run.
//!
//! The traced run cuts each fragment with `Subgraph::from_source`
//! (timing the segment store underneath through a wrapping
//! `GraphSource`), then runs the steps of `JxpPeer::new` one call at a
//! time, and checks that the scores match `JxpPeer::from_source`.

use crate::report::{fnv, median, quantile, repeat, Report, FNV_INIT};
use crate::trace::{Tracer, UNATTRIBUTED};
use jxp_core::invariants::check_mass_conservation;
use jxp_core::local_pr::{extended_pagerank, LocalTopology};
use jxp_core::world::WorldNode;
use jxp_core::{JxpConfig, JxpPeer};
use jxp_segstore::{BackingKind, SegStoreConfig, SegmentWriter, SegmentedGraph, SegstoreMetrics};
use jxp_webgraph::{GraphSource, PageId, Subgraph};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const NODES: usize = 2_000_000;
const SEGMENT_NODES: usize = 65_536;
/// Resident segments allowed; the crawl has 31.
const BUDGET: usize = 8;
/// Contiguous fragments: two segments each.
const CONTIGUOUS: usize = 6;
const CONTIGUOUS_PAGES: usize = 2 * SEGMENT_NODES;
/// Strided fragments: one page in `STRIDE`, touching every segment.
const STRIDED: usize = 2;
const STRIDE: usize = 31;
const THREADS: usize = 2;
const SETUPS: usize = 3;

/// splitmix64.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Node `i`'s out-links: 1..=8 links, one page in 16 dangling, and half
/// the pages pointing one extra link into the first 1024 (hubs).
fn crawl_links(i: u64, n: u64, salt: u64, mut f: impl FnMut(u32, u32)) {
    let h = mix(i.wrapping_mul(0x517c_c1b7_2722_0a95) ^ salt);
    if h.is_multiple_of(16) {
        return;
    }
    let degree = 1 + (h >> 8) % 8;
    for k in 0..degree {
        let dst = mix(h.wrapping_add(k)) % n;
        if dst != i {
            f(i as u32, dst as u32);
        }
    }
    if h.is_multiple_of(2) {
        let hub = mix(h ^ 0xdead_beef) % 1024.min(n);
        if hub != i {
            f(i as u32, hub as u32);
        }
    }
}

fn build_segments(dir: &Path, salt: u64) -> jxp_segstore::Manifest {
    let mut w = SegmentWriter::create(dir, SEGMENT_NODES).expect("create segment writer");
    w.ensure_nodes(NODES);
    for i in 0..NODES as u64 {
        crawl_links(i, NODES as u64, salt, |s, d| {
            w.add_edge(PageId(s), PageId(d)).expect("spill an edge")
        });
    }
    w.finish().expect("finish the segments")
}

/// The peers' fragments: contiguous ones starting at seed-chosen
/// segment boundaries (so each covers exactly two full segments, on
/// every seed), then strided ones.
fn fragments(seed: u64) -> Vec<Vec<PageId>> {
    let full_segments = NODES / SEGMENT_NODES;
    let mut out = Vec::new();
    for k in 0..CONTIGUOUS as u64 {
        let seg = mix(seed ^ (k + 1)) as usize % (full_segments - 1);
        let start = seg * SEGMENT_NODES;
        out.push(
            (start..start + CONTIGUOUS_PAGES)
                .map(|p| PageId(p as u32))
                .collect(),
        );
    }
    for k in 0..STRIDED {
        out.push(
            (k..NODES)
                .step_by(STRIDE)
                .map(|p| PageId(p as u32))
                .collect(),
        );
    }
    out
}

fn open(dir: &Path) -> SegmentedGraph {
    SegmentedGraph::open_with(
        dir,
        SegStoreConfig {
            resident_segments: BUDGET,
            backing: BackingKind::Pread,
        },
        SegstoreMetrics::detached(),
    )
    .expect("open the segment directory")
}

fn config() -> JxpConfig {
    JxpConfig {
        threads: THREADS,
        ..JxpConfig::default()
    }
}

struct Rep {
    pr_s: f64,
    per_peer_ms: Vec<f64>,
    hash: u64,
}

/// Open the segments cold and build every peer.
fn rep(dir: &Path, frags: &[Vec<PageId>], report: &mut Report, check: bool) -> Rep {
    let sg = open(dir);
    let mut per_peer_ms = Vec::with_capacity(frags.len());
    let mut hash = FNV_INIT;
    let start = Instant::now();
    for pages in frags {
        let t = Instant::now();
        let peer = JxpPeer::from_source(&sg, pages.iter().copied(), NODES as u64, config());
        per_peer_ms.push(t.elapsed().as_secs_f64() * 1e3);
        fnv(&mut hash, peer.scores());
        if check {
            if let Err(e) = check_mass_conservation(&peer) {
                report.gate(false, || format!("peer of {} pages: {e}", pages.len()));
            }
        }
    }
    let pr_s = start.elapsed().as_secs_f64();
    if check {
        gate_resident(&sg, report);
    }
    Rep {
        pr_s,
        per_peer_ms,
        hash,
    }
}

fn gate_resident(sg: &SegmentedGraph, report: &mut Report) {
    let (resident, encoded) = (sg.resident_bytes(), sg.total_encoded_bytes());
    report.gate(resident < encoded, || {
        format!("resident bytes {resident} are not below the encoded size {encoded}")
    });
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path, report: &mut Report) {
    let salt = mix(seed);
    let mut times = Vec::new();
    let mut manifest = None;
    let dir = work.join("segments");
    for _ in 0..SETUPS {
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        manifest = Some(build_segments(&dir, salt));
        times.push(t.elapsed().as_secs_f64());
    }
    let manifest = manifest.expect("at least one set-up");
    report.metric("setup_s", median(&times), "s");
    eprintln!(
        "outofcore-pr: {} nodes, {} edges, {} segments, {:.1} MB encoded, budget {BUDGET} segments",
        manifest.num_nodes,
        manifest.num_edges,
        manifest.segments.len(),
        manifest.total_encoded_bytes() as f64 / 1e6
    );
    let frags = fragments(seed);
    if trace {
        return traced(&dir, &frags, seed, report);
    }
    let reps = repeat(seconds, |k| {
        let r = rep(&dir, &frags, report, k == 0);
        eprintln!(
            "  repetition {}: {} peers in {:.3} s, hash {:016x}",
            k + 1,
            frags.len(),
            r.pr_s,
            r.hash
        );
        r
    });
    for r in &reps {
        report.gate(r.hash == reps[0].hash, || {
            format!(
                "score hash {:016x} != {:016x} for the same seed",
                r.hash, reps[0].hash
            )
        });
    }
    let peers = frags.len() as f64;
    let pr: Vec<f64> = reps.iter().map(|r| r.pr_s).collect();
    let lat: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.per_peer_ms.iter().copied())
        .collect();
    report.attempted = (reps.len() * frags.len()) as u64;
    report.metric("pr_s", median(&pr), "s");
    report.metric("throughput_per_s", peers / median(&pr), "1/s");
    report.metric("latency_p50_ms", quantile(&lat, 0.5), "ms");
    report.metric("latency_tail_ms", quantile(&lat, 0.9), "ms");
    report.metric("latency_samples", lat.len() as f64, "count");
    report.metric("completed_ratio", 1.0, "ratio");
    report.metric("repetitions", reps.len() as f64, "count");
}

/// A `GraphSource` that adds up the time spent in the wrapped segment
/// store's successor lookups (segment faults, decodes, cache probes).
struct TimedSource<'a> {
    inner: &'a SegmentedGraph,
    ns: AtomicU64,
}

impl GraphSource for TimedSource<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }
    fn out_degree(&self, v: PageId) -> usize {
        self.inner.out_degree(v)
    }
    fn for_each_successor<F: FnMut(PageId)>(&self, v: PageId, f: F) {
        let t = Instant::now();
        self.inner.for_each_successor(v, f);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    fn for_each_predecessor<F: FnMut(PageId)>(&self, v: PageId, f: F) {
        self.inner.for_each_predecessor(v, f);
    }
}

fn traced(dir: &Path, frags: &[Vec<PageId>], seed: u64, report: &mut Report) {
    let plain = rep(dir, frags, report, true);
    let sg = open(dir);
    let src = TimedSource {
        inner: &sg,
        ns: AtomicU64::new(0),
    };
    let tracer = Tracer::new(true);
    let cfg = config();
    let n_total = NODES as f64;
    let mut hash = FNV_INIT;
    let mut iterations = 0u64;
    let start = Instant::now();
    for (op, pages) in frags.iter().enumerate() {
        let op = op as u64;
        tracer.span(UNATTRIBUTED, "peer", op, || {
            let before = src.ns.load(Ordering::Relaxed);
            let (graph, extract) = tracer.span_id("jxp-webgraph", "webgraph.extract", op, || {
                Subgraph::from_source(&src, pages.iter().copied())
            });
            let fetched = src.ns.load(Ordering::Relaxed) - before;
            tracer.child(extract, "jxp-segstore", "segstore.successors", fetched);
            // The steps of `JxpPeer::new`, one call at a time.
            let (topo, inflow) = tracer.span("jxp-core", "core.topology", op, || {
                let topo = LocalTopology::build(&graph);
                let inflow = WorldNode::new().inflow(&graph, n_total);
                (topo, inflow)
            });
            let n = graph.num_pages() as f64;
            let scores = vec![1.0 / n_total; graph.num_pages()];
            let outcome = tracer.span("jxp-pagerank", "pagerank.sweep", op, || {
                extended_pagerank(
                    &topo,
                    n_total,
                    &inflow,
                    &scores,
                    (n_total - n) / n_total,
                    &cfg,
                )
            });
            iterations += outcome.iterations as u64;
            fnv(&mut hash, &outcome.scores);
        });
    }
    let wall = start.elapsed().as_secs_f64();
    report.gate(hash == plain.hash, || {
        format!(
            "step-by-step peer scores {hash:016x} != JxpPeer::from_source {:016x}",
            plain.hash
        )
    });
    gate_resident(&sg, report);
    report.attempted = 2 * frags.len() as u64;

    let m = sg.metrics();
    let (hits, misses) = (m.hits_total.get(), m.misses_total.get());
    report.metric(
        "pagerank.iters_per_absorb",
        iterations as f64 / frags.len() as f64,
        "iters",
    );
    report.metric("pagerank.sweep.s", tracer.total("pagerank.sweep").0, "s");
    report.metric("segstore.hits", hits as f64, "count");
    report.metric("segstore.misses", misses as f64, "count");
    report.metric(
        "segstore.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "segstore.bytes_read",
        m.read_bytes_total.get() as f64,
        "bytes",
    );
    report.metric(
        "segstore.resident_bytes",
        sg.resident_bytes() as f64,
        "bytes",
    );
    report.metric(
        "webgraph.extract.s",
        tracer.total("webgraph.extract").0,
        "s",
    );
    report.layer_breakdown(&tracer, wall, plain.pr_s);
    crate::write_trace(&tracer, "outofcore-pr", seed);
}
