//! `cluster-serve`: a durable serving cluster under an open-loop query
//! load.
//!
//! 8 nodes hold `jxp_serve::contiguous_fragments` of Amazon at 0.2
//! scale and meet over a loopback transport (the real wire codec, no
//! sockets), one meeting thread, in `run_cluster_with`'s schedule.
//! Every node sits behind a `ServeHandler` and journals each meeting to
//! a WAL with periodic checkpoints. While the meetings run, one
//! generator thread sends top-10 queries at a fixed rate through
//! `query_node`, each timed from its due time. After the meetings, one
//! settled pass asks every node every query; the max-merged answers are
//! scored for precision@10.
//!
//! The measured cluster is assembled from the crates' public parts and
//! journals to the in-memory `MemStore`: with the on-disk `DirStore`,
//! fsync under the node locks made meetings/s and query latency swing
//! from run to run on a shared disk. Once per run, untimed, the
//! program's own `run_cluster` journals to a `DirStore`; every measured
//! repetition must end in its score hash. The traced run adds spans in
//! the transport (`encode_frame`, `decode_frame`), around each node's
//! frame handler and around the state store.

use crate::report::{fnv, median, quantile, repeat, Report, FNV_INIT};
use crate::sim::check_peers;
use crate::trace::{set_lane, Tracer, UNATTRIBUTED};
use jxp_core::{JxpConfig, JxpPeer};
use jxp_minerva::eval::precision_at_k;
use jxp_minerva::{Corpus, CorpusParams, PeerIndex, Query, ServingIndex};
use jxp_node::{
    request_with_retry, run_cluster, ClusterConfig, ClusterReport, Exchange, FrameHandler, JxpNode,
    NodeId, NodeMetrics, NodePersist, PersistConfig, RetryPolicy, SharedStore, Transport,
    TransportError, TransportKind,
};
use jxp_pagerank::{pagerank, PageRankConfig};
use jxp_serve::{contiguous_fragments, query_node, ServeConfig, ServeHandler, ServeMetrics};
use jxp_store::{MemStore, Recovered, StateStore, StoreError, StoreMetrics, WalRecord};
use jxp_synopses::mips::MipsPermutations;
use jxp_webgraph::generators::{amazon_2005, CategorizedGraph};
use jxp_webgraph::{FxHashMap, PageId, Subgraph};
use jxp_wire::{decode_frame, encode_frame, Frame, QueryReplyPayload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.2;
const NODES: usize = 8;
/// Meetings per repetition.
const MEETINGS: usize = 400;
/// Open-loop query rate while the meetings run.
const RATE_PER_S: f64 = 1000.0;
/// The generator spins, instead of sleeping, this close to a due time.
const SPIN: Duration = Duration::from_micros(200);
const K: u32 = 10;
const NUM_QUERIES: usize = 20;
const CHECKPOINT_EVERY: u64 = 8;
/// `run_cluster_with`'s synopsis permutations (`ClusterConfig`'s
/// default `mips_dims`, seeded `seed ^ 0x5a5a`).
const MIPS_DIMS: usize = 64;
const SETUPS: usize = 3;

/// Everything the cluster is built from.
struct Inputs {
    cg: CategorizedGraph,
    truth: Vec<f64>,
    corpus: Corpus,
    fragments: Vec<Subgraph>,
    indexes: Vec<PeerIndex>,
    queries: Vec<Query>,
}

fn inputs(seed: u64) -> Inputs {
    let cg = amazon_2005().generate_scaled(SCALE);
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let corpus = Corpus::generate(
        &cg,
        &truth,
        CorpusParams::default(),
        &mut StdRng::seed_from_u64(seed ^ 1),
    );
    let fragments = contiguous_fragments(&cg, NODES);
    let indexes = fragments
        .iter()
        .map(|f| PeerIndex::build(f, &corpus))
        .collect();
    let queries = corpus.make_queries(NUM_QUERIES, &mut StdRng::seed_from_u64(seed ^ 2));
    Inputs {
        cg,
        truth,
        corpus,
        fragments,
        indexes,
        queries,
    }
}

/// What the generator measured in one repetition.
#[derive(Default)]
struct Load {
    /// Query latency from its due time, ms; a failed query is +inf.
    latency_ms: Vec<f64>,
    late_ms_max: f64,
    failed: u64,
    /// Settled pass: `settled[node][query]`.
    settled: Vec<Vec<Option<QueryReplyPayload>>>,
    settled_failed: u64,
    /// Theorem-gate failures found on the final peers.
    violations: Vec<String>,
    worst_ratio: f64,
}

/// The open-loop generator: query `i` is due at `i / RATE_PER_S` after
/// the start, whatever happened to earlier ones; it stops at the first
/// due time after the meetings finish, then runs the settled pass.
fn generate(
    transport: &dyn Transport,
    nodes: &[Arc<JxpNode>],
    done: &AtomicBool,
    inputs: &Inputs,
    seed: u64,
    check: bool,
    tracer: &Tracer,
) -> Load {
    let retry = RetryPolicy::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 3);
    let mut load = Load::default();
    let start = Instant::now();
    let mut i = 0u64;
    while !done.load(Ordering::Acquire) {
        let due = start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
        let now = Instant::now();
        if now < due {
            // Sleep to within a timer slack of the due time, then spin,
            // so the generator's own wake-up delay stays out of the
            // latencies it records.
            match (due - now).checked_sub(SPIN) {
                Some(nap) if !nap.is_zero() => std::thread::sleep(nap),
                _ => std::hint::spin_loop(),
            }
            continue;
        }
        load.late_ms_max = load.late_ms_max.max((now - due).as_secs_f64() * 1e3);
        let node = rng.gen_range(0..NODES) as NodeId;
        let q = &inputs.queries[rng.gen_range(0..NUM_QUERIES)];
        let ok = tracer.span(UNATTRIBUTED, "query", i, || {
            query_node(transport, node, i, &q.terms, K, &retry).is_ok()
        });
        load.latency_ms.push(if ok {
            due.elapsed().as_secs_f64() * 1e3
        } else {
            load.failed += 1;
            f64::INFINITY
        });
        i += 1;
    }
    if check {
        let peers: Vec<JxpPeer> = nodes.iter().map(|n| n.with_peer(JxpPeer::clone)).collect();
        let mut gates = Report::default();
        load.worst_ratio = check_peers(&peers, &inputs.truth, &mut gates);
        load.violations = gates.failures().to_vec();
    }
    for (node, n) in nodes.iter().enumerate() {
        let epoch = n.score_epoch();
        let replies = inputs
            .queries
            .iter()
            .map(|q| {
                let r = query_node(transport, node as NodeId, i, &q.terms, K, &retry).ok();
                i += 1;
                load.settled_failed += u64::from(r.is_none());
                if let Some(reply) = &r {
                    if let Err(e) = check_reply(reply, epoch, n) {
                        load.violations
                            .push(format!("node {node}, query {}: {e}", q.name));
                    }
                }
                r
            })
            .collect();
        load.settled.push(replies);
    }
    load
}

/// A settled reply answers at the node's final epoch with at most `K`
/// of the node's own pages, in descending fused score.
fn check_reply(reply: &QueryReplyPayload, epoch: u64, node: &JxpNode) -> Result<(), String> {
    if reply.epoch != epoch {
        return Err(format!(
            "reply epoch {} after the meetings, node at {epoch}",
            reply.epoch
        ));
    }
    if reply.hits.len() > K as usize {
        return Err(format!("{} hits for a top-{K} query", reply.hits.len()));
    }
    if reply.hits.windows(2).any(|w| w[0].fused < w[1].fused) {
        return Err("hits are not in descending fused score".to_string());
    }
    node.with_peer(
        |p| match reply.hits.iter().find(|h| p.score(h.page).is_none()) {
            Some(h) => Err(format!("hit {:?} is not one of the node's pages", h.page)),
            None => Ok(()),
        },
    )
}

/// Max-merge one query's settled hits across nodes and rank them by the
/// fused or the tf·idf score (ties by page id).
fn merged(settled: &[Vec<Option<QueryReplyPayload>>], qi: usize, fused: bool) -> Vec<PageId> {
    let mut best: FxHashMap<PageId, f64> = FxHashMap::default();
    for reply in settled.iter().filter_map(|node| node[qi].as_ref()) {
        for h in &reply.hits {
            let s = if fused { h.fused } else { h.tfidf };
            let e = best.entry(h.page).or_insert(f64::NEG_INFINITY);
            *e = e.max(s);
        }
    }
    let mut v: Vec<(PageId, f64)> = best.into_iter().collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    v.into_iter().take(K as usize).map(|(p, _)| p).collect()
}

/// Mean precision@10 of the fused and the tf·idf-only rankings.
fn precision(inputs: &Inputs, load: &Load) -> (f64, f64) {
    let (mut fused, mut tfidf) = (0.0, 0.0);
    for (qi, q) in inputs.queries.iter().enumerate() {
        fused += precision_at_k(
            &inputs.corpus,
            q,
            &merged(&load.settled, qi, true),
            K as usize,
        );
        tfidf += precision_at_k(
            &inputs.corpus,
            q,
            &merged(&load.settled, qi, false),
            K as usize,
        );
    }
    let n = inputs.queries.len() as f64;
    (fused / n, tfidf / n)
}

fn serve_handler(node: &Arc<JxpNode>, index: &PeerIndex) -> Arc<ServeHandler> {
    Arc::new(ServeHandler::new(
        Arc::clone(node),
        ServingIndex::build(index),
        ServeConfig::default(),
        ServeMetrics::detached(),
    ))
}

/// The program's own `run_cluster`, once per run, journaling to a
/// `DirStore` in the state dir (fsync included): the reference the
/// measured repetitions must agree with. Not timed.
fn reference(inputs: &Inputs, seed: u64, state_dir: &Path) -> ClusterReport {
    let _ = std::fs::remove_dir_all(state_dir);
    let config = ClusterConfig {
        meetings: MEETINGS,
        transport: TransportKind::Loopback,
        seed,
        threads: 1,
        state_dir: Some(state_dir.to_path_buf()),
        checkpoint_every: CHECKPOINT_EVERY,
        ..ClusterConfig::default()
    };
    let report = run_cluster(
        inputs.fragments.clone(),
        inputs.cg.graph.num_nodes() as u64,
        JxpConfig::default(),
        &config,
        Some(&inputs.truth),
    );
    let _ = std::fs::remove_dir_all(state_dir);
    report
}

/// What one measured repetition reports.
struct Rep {
    meetings_per_s: f64,
    meeting_phase_s: f64,
    attempted: u64,
    completed: u64,
    hash: u64,
    load: Load,
}

/// The cluster a repetition leaves behind, for the traced figures.
struct Parts {
    serve: Vec<Arc<ServeHandler>>,
    nodes: Vec<Arc<JxpNode>>,
    transport: TimedLoopback,
    store: Arc<TimedStore>,
}

/// One measured repetition: the cluster `run_cluster_with` builds for a
/// fresh state, one meeting thread and no faults, assembled from the
/// crates' public parts around an in-memory `MemStore`, with the query
/// generator beside it. `check` runs the gates on the final state.
fn rep(inputs: &Inputs, seed: u64, tracer: &Arc<Tracer>, check: bool) -> (Rep, Parts) {
    let n_total = inputs.cg.graph.num_nodes() as u64;
    let perms = MipsPermutations::generate(MIPS_DIMS, seed ^ 0x5a5a);
    let store = Arc::new(TimedStore {
        inner: MemStore::new(),
        tracer: Arc::clone(tracer),
        append_bytes: AtomicU64::new(0),
        checkpoint_bytes: AtomicU64::new(0),
    });
    let nodes: Vec<Arc<JxpNode>> = inputs
        .fragments
        .iter()
        .enumerate()
        .map(|(i, frag)| {
            let peer = JxpPeer::new(frag.clone(), n_total, JxpConfig::default());
            let node = JxpNode::with_metrics(i as NodeId, peer, &perms, NodeMetrics::detached());
            node.attach_persistence(NodePersist::new(
                Arc::clone(&store) as SharedStore,
                format!("node-{i}"),
                PersistConfig {
                    checkpoint_every: CHECKPOINT_EVERY,
                    ..PersistConfig::default()
                },
                StoreMetrics::detached(),
                0,
            ));
            node.persist_checkpoint();
            Arc::new(node)
        })
        .collect();
    let serve: Vec<Arc<ServeHandler>> = nodes
        .iter()
        .zip(&inputs.indexes)
        .map(|(node, index)| serve_handler(node, index))
        .collect();
    let transport = TimedLoopback {
        handlers: serve
            .iter()
            .enumerate()
            .map(|(i, h)| {
                Arc::new(TimedHandler {
                    inner: Arc::clone(h),
                    tracer: Arc::clone(tracer),
                    id: i as u64,
                }) as Arc<dyn FrameHandler>
            })
            .collect(),
        tracer: Arc::clone(tracer),
        frames: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    };
    let retry = RetryPolicy::default();
    for (i, node) in nodes.iter().enumerate() {
        let _ = node.hello(((i + 1) % NODES) as NodeId, &transport, &retry);
    }
    // `run_cluster_with`'s schedule: round-robin initiators, a seeded
    // uniform partner; one thread runs it in schedule order.
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule: Vec<(usize, NodeId)> = (0..MEETINGS)
        .map(|m| {
            let initiator = m % NODES;
            let mut t = rng.gen_range(0..NODES - 1);
            if t >= initiator {
                t += 1;
            }
            (initiator, t as NodeId)
        })
        .collect();
    let done = AtomicBool::new(false);
    let mut meeting_phase_s = 0.0;
    let load = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            set_lane(1);
            generate(&transport, &nodes, &done, inputs, seed, check, tracer)
        });
        let start = Instant::now();
        // `JxpNode::meet`, one call at a time: the initiator's payload
        // (`meet_begin`), the exchange, then absorb and journal
        // (`meet_finish`).
        for (m, &(i, target)) in schedule.iter().enumerate() {
            let m = m as u64;
            let node = &nodes[i];
            tracer.span("jxp-node", "node.meet", m, || {
                let request = tracer.span("jxp-core", "core.payload", m, || node.meet_begin());
                match request_with_retry(&transport, target, &request, &retry) {
                    Ok(done) => {
                        let _ = tracer.span("jxp-core", "core.absorb", m, || {
                            node.meet_finish(done.exchange, done.retries)
                        });
                    }
                    Err(failed) => node.meet_abort(failed.retries),
                }
            });
        }
        meeting_phase_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        generator.join().expect("the generator thread panicked")
    });
    let mut hash = FNV_INIT;
    let (mut attempted, mut completed) = (0, 0);
    for node in &nodes {
        node.with_peer(|p| fnv(&mut hash, p.scores()));
        attempted += node.stats().meetings_attempted;
        completed += node.stats().meetings_completed;
    }
    let rep = Rep {
        meetings_per_s: completed as f64 / meeting_phase_s,
        meeting_phase_s,
        attempted,
        completed,
        hash,
        load,
    };
    let parts = Parts {
        serve,
        nodes,
        transport,
        store,
    };
    (rep, parts)
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path, report: &mut Report) {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(inputs(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    let inputs = built.expect("at least one set-up");
    report.metric("setup_s", median(&times), "s");
    eprintln!(
        "cluster-serve: {} pages, {NODES} nodes, {MEETINGS} meetings per repetition, \
         {RATE_PER_S} queries/s open loop, WAL and checkpoints in memory",
        inputs.cg.graph.num_nodes(),
    );
    let reference = reference(&inputs, seed, &work.join("state"));
    let plain = Arc::new(Tracer::new(false));
    let reps = if trace {
        vec![rep(&inputs, seed, &plain, true).0]
    } else {
        repeat(seconds, |k| {
            let r = rep(&inputs, seed, &plain, k == 0).0;
            eprintln!(
                "  repetition {}: {:.1} meetings/s, {} queries, p50 {:.3} ms, p99 {:.2} ms, \
                 hash {:016x}",
                k + 1,
                r.meetings_per_s,
                r.load.latency_ms.len(),
                quantile(&r.load.latency_ms, 0.5),
                quantile(&r.load.latency_ms, 0.99),
                r.hash
            );
            r
        })
    };
    outcome(&inputs, &reference, &reps, report);
    if trace {
        traced(&inputs, seed, &reference, &reps[0], report);
    }
}

fn outcome(inputs: &Inputs, reference: &ClusterReport, reps: &[Rep], report: &mut Report) {
    report.gate(reference.meetings_completed == MEETINGS as u64, || {
        format!(
            "run_cluster_with completed {} of {MEETINGS} meetings",
            reference.meetings_completed
        )
    });
    let mut queries = 0u64;
    for r in reps {
        let sent = (r.load.latency_ms.len() + NODES * NUM_QUERIES) as u64;
        queries += sent;
        report.attempted += r.attempted + sent;
        report.failed += (r.attempted - r.completed) + r.load.failed + r.load.settled_failed;
        report.gate(
            r.completed == r.attempted && r.attempted == MEETINGS as u64,
            || {
                format!(
                    "meetings completed {} of {} attempted",
                    r.completed, r.attempted
                )
            },
        );
        report.gate(r.hash == reference.score_hash, || {
            format!(
                "score hash {:016x} != run_cluster_with's {:016x} for the same seed",
                r.hash, reference.score_hash
            )
        });
    }
    let first = &reps[0];
    for v in &first.load.violations {
        report.gate(false, || v.clone());
    }
    let (fused, tfidf) = precision(inputs, &first.load);
    if fused < tfidf {
        // Reported, not gated: on this 8-node cluster the max-merged
        // fused ranking loses to tf-idf alone on the current code (the
        // paper's Table 2 claim does not hold here; `jxp-cli loadgen
        // --peers 8 --scale 0.2 --queries 20` shows the same).
        eprintln!("FINDING: fused precision@10 {fused:.4} is below tf-idf precision@10 {tfidf:.4}");
    }
    // Latency percentiles pool every query of every repetition: p99
    // comes from the few dozen lock stalls a repetition holds, so one
    // repetition alone reads it poorly.
    let rates: Vec<f64> = reps.iter().map(|r| r.meetings_per_s).collect();
    let lat: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.load.latency_ms.iter().copied())
        .collect();
    let late = reps.iter().map(|r| r.load.late_ms_max).fold(0.0, f64::max);
    report.metric("throughput_per_s", median(&rates), "1/s");
    report.metric("latency_p50_ms", quantile(&lat, 0.5), "ms");
    report.metric("latency_tail_ms", quantile(&lat, 0.99), "ms");
    report.metric("latency_samples", lat.len() as f64, "count");
    report.metric(
        "completed_ratio",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
    );
    report.metric("queries", queries as f64, "count");
    report.metric("loadgen.late_ms.max", late, "ms");
    report.metric("quality.precision_at_10", fused, "ratio");
    report.metric("quality.tfidf_precision_at_10", tfidf, "ratio");
    report.metric(
        "quality.footrule",
        reference.footrule.unwrap_or(1.0),
        "ratio",
    );
    report.metric("quality.max_truth_ratio", first.load.worst_ratio, "ratio");
    report.metric("repetitions", reps.len() as f64, "count");
}

/// The loopback transport with a span around every encode and decode.
struct TimedLoopback {
    handlers: Vec<Arc<dyn FrameHandler>>,
    tracer: Arc<Tracer>,
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl TimedLoopback {
    fn carry(&self, frame: &Frame, op: u64) -> Result<Frame, TransportError> {
        let bytes = self
            .tracer
            .span("jxp-wire", "wire.encode", op, || encode_frame(frame));
        let (frame, _) = self
            .tracer
            .span("jxp-wire", "wire.decode", op, || decode_frame(&bytes))?;
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(frame)
    }
}

impl Transport for TimedLoopback {
    fn request(&self, peer: NodeId, frame: &Frame) -> Result<Exchange, TransportError> {
        let handler = self
            .handlers
            .get(peer as usize)
            .ok_or_else(|| TransportError::Unreachable(format!("no node {peer}")))?;
        let sent = jxp_wire::encoded_len(frame) as u64;
        let reply = handler
            .handle(self.carry(frame, peer)?)
            .ok_or(TransportError::Timeout)?;
        let received = jxp_wire::encoded_len(&reply) as u64;
        Ok(Exchange {
            reply: self.carry(&reply, peer)?,
            bytes_sent: sent,
            bytes_received: received,
        })
    }
}

/// A node's handler chain with a span around each inbound frame:
/// queries are the serve layer's, everything else the node's.
struct TimedHandler {
    inner: Arc<ServeHandler>,
    tracer: Arc<Tracer>,
    id: u64,
}

impl FrameHandler for TimedHandler {
    fn handle(&self, frame: Frame) -> Option<Frame> {
        let (layer, name) = match frame {
            Frame::QueryRequest(_) => ("jxp-serve", "serve.handle"),
            _ => ("jxp-node", "node.handle"),
        };
        self.tracer
            .span(layer, name, self.id, || self.inner.handle(frame))
    }
}

/// The store with a span around every append and checkpoint.
struct TimedStore {
    inner: MemStore,
    tracer: Arc<Tracer>,
    append_bytes: AtomicU64,
    checkpoint_bytes: AtomicU64,
}

impl StateStore for TimedStore {
    fn checkpoint(&self, key: &str, seq: u64, snapshot: &[u8]) -> Result<(), StoreError> {
        self.checkpoint_bytes
            .fetch_add(snapshot.len() as u64, Ordering::Relaxed);
        self.tracer.span("jxp-store", "store.checkpoint", seq, || {
            self.inner.checkpoint(key, seq, snapshot)
        })
    }
    fn append(&self, key: &str, record: &WalRecord) -> Result<u64, StoreError> {
        self.tracer
            .span("jxp-store", "store.append", record.seq, || {
                let before = self.inner.wal_size(key)?;
                let after = self.inner.append(key, record)?;
                self.append_bytes
                    .fetch_add(after.saturating_sub(before), Ordering::Relaxed);
                Ok(after)
            })
    }
    fn load(&self, key: &str) -> Result<Option<Recovered>, StoreError> {
        self.inner.load(key)
    }
    fn wal_size(&self, key: &str) -> Result<u64, StoreError> {
        self.inner.wal_size(key)
    }
    fn keys(&self) -> Result<Vec<String>, StoreError> {
        self.inner.keys()
    }
}

/// The traced run: one more repetition with spans, after the untraced
/// one (`plain`) that gives the overhead baseline.
fn traced(inputs: &Inputs, seed: u64, reference: &ClusterReport, plain: &Rep, report: &mut Report) {
    let tracer = Arc::new(Tracer::new(true));
    let (r, parts) = rep(inputs, seed, &tracer, false);
    report.gate(r.hash == reference.score_hash, || {
        format!(
            "traced repetition hash {:016x} != run_cluster_with's {:016x}",
            r.hash, reference.score_hash
        )
    });
    let total = |name| tracer.total(name);
    let (payload_s, payload_calls) = total("core.payload");
    let (absorb_s, absorb_calls) = total("core.absorb");
    report.metric("core.payload.calls", payload_calls as f64, "count");
    report.metric("core.payload.s", payload_s, "s");
    report.metric("core.absorb.calls", absorb_calls as f64, "count");
    report.metric("core.absorb.s", absorb_s, "s");
    let (mut world, mut iters, mut runs, mut retries, mut failed) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for node in &parts.nodes {
        node.with_peer(|p| {
            world += p.world().len() as u64;
            iters += p.stats().total_pr_iterations;
            runs += p.stats().meetings + 1;
        });
        let s = node.stats();
        retries += s.retries;
        failed += s.meetings_failed;
    }
    report.metric("core.world_entries", world as f64, "count");
    report.metric(
        "pagerank.iters_per_absorb",
        iters as f64 / runs as f64,
        "iters",
    );
    report.metric("wire.encode.s", total("wire.encode").0, "s");
    report.metric("wire.decode.s", total("wire.decode").0, "s");
    report.metric(
        "wire.frames",
        parts.transport.frames.load(Ordering::Relaxed) as f64,
        "count",
    );
    report.metric(
        "wire.bytes",
        parts.transport.bytes.load(Ordering::Relaxed) as f64,
        "bytes",
    );
    report.metric("node.meet.s", total("node.meet").0, "s");
    report.metric("node.handle.s", total("node.handle").0, "s");
    report.metric("node.retries", retries as f64, "count");
    report.metric("node.meetings_failed", failed as f64, "count");
    let (append_s, appends) = total("store.append");
    let (checkpoint_s, checkpoints) = total("store.checkpoint");
    let bytes = |b: &AtomicU64| b.load(Ordering::Relaxed) as f64;
    report.metric("store.append.calls", appends as f64, "count");
    report.metric("store.append.s", append_s, "s");
    report.metric(
        "store.append.bytes",
        bytes(&parts.store.append_bytes),
        "bytes",
    );
    report.metric("store.checkpoint.calls", checkpoints as f64, "count");
    report.metric("store.checkpoint.s", checkpoint_s, "s");
    report.metric(
        "store.checkpoint.bytes",
        bytes(&parts.store.checkpoint_bytes),
        "bytes",
    );
    // `NodePersist` counts store failures into its metrics, which
    // detach here; a failed append still shows as a missing WAL record.
    report.metric(
        "store.errors",
        (2 * MEETINGS as u64).saturating_sub(appends) as f64,
        "count",
    );
    let (mut queries, mut hits, mut stale) = (0u64, 0u64, 0u64);
    for h in &parts.serve {
        let m = h.metrics();
        queries += m.queries.get();
        hits += m.cache_hits.get();
        stale += m.cache_stale.get();
    }
    report.metric("serve.handle.s", total("serve.handle").0, "s");
    report.metric(
        "serve.cache_hit_ratio",
        hits as f64 / queries.max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.stale_ratio",
        stale as f64 / queries.max(1) as f64,
        "ratio",
    );
    report.layer_breakdown(&tracer, r.meeting_phase_s, plain.meeting_phase_s);
    crate::write_trace(&tracer, "cluster-serve", seed);
}
