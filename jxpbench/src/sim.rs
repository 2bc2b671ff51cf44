//! `sim-amazon`: the paper's headline setup on the round-based meeting
//! engine, `jxp_p2pnet::Network::run_parallel`.
//!
//! Amazon at full size (55,200 pages), the 100 crawler peers of
//! `jxp_bench::load_dataset`, light-weight merging with take-the-max,
//! random meetings, two engine threads. Every repetition runs the same
//! fixed meeting count from a fresh network, because later meetings cost
//! far more than early ones (world nodes grow). The seed drives the
//! meeting schedule.
//!
//! The traced run replays the same schedule serially through the calls
//! `jxp_core::meeting::meet` makes (`payload`, then `absorb`, plus
//! `validate`), and checks that the replay ends in the engine's exact
//! scores.

use crate::report::{median, quantile, repeat, Report};
use crate::trace::{Tracer, UNATTRIBUTED};
use jxp_bench::{build_network, load_dataset, score_hash, Dataset};
use jxp_core::invariants::{check_mass_conservation, check_safety_bound};
use jxp_core::selection::{select_partner, SelectionStrategy, SelectorState};
use jxp_core::{JxpConfig, JxpPeer};
use jxp_pagerank::metrics::footrule_distance;
use jxp_telemetry::TelemetryHub;
use jxp_webgraph::generators::amazon_2005;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Meetings per repetition (the ROADMAP baseline's count).
const MEETINGS: usize = 1200;
/// Meetings per timed `run_parallel` call.
const BATCH: usize = 30;
/// The footrule is sampled every this many batches (60 meetings),
/// between calls, outside the timed part.
const SAMPLE_EVERY: usize = 2;
const THREADS: usize = 2;
/// The paper evaluates the top-1000 of its full-size collections.
const TOP_K: usize = 1000;
/// `quality.meetings_to_footrule` reports the first sampled meeting
/// count below this footrule; on the seeds tried it falls in the run's
/// second half.
const FOOTRULE_THRESHOLD: f64 = 0.13;
/// Gate: the footrule after the last meeting must be below this.
const FOOTRULE_GATE: f64 = 0.15;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Dataset generation, the §6.1 crawl, centralized PageRank and the
/// network's peers (their initial local PageRank), timed `SETUPS`
/// times; returns the median seconds and the last dataset.
fn setup(seed: u64) -> (f64, Dataset) {
    let mut times = Vec::new();
    let mut ds = None;
    for _ in 0..SETUPS {
        drop(ds.take());
        let t = Instant::now();
        let d = load_dataset(&amazon_2005(), 1.0);
        let net = build_network(
            &d,
            JxpConfig::default(),
            SelectionStrategy::Random,
            seed,
            THREADS,
        );
        times.push(t.elapsed().as_secs_f64());
        drop(net);
        ds = Some(d);
    }
    (median(&times), ds.expect("at least one set-up"))
}

struct Rep {
    meetings_per_s: f64,
    timed_s: f64,
    rounds: u64,
    stolen: u64,
    worst_ratio: f64,
    /// Per-meeting wall time of each timed batch.
    per_meeting_ms: Vec<f64>,
    footrule: f64,
    meetings_to_footrule: Option<u64>,
    hash: u64,
    completed: u64,
}

/// One repetition: a fresh network runs `MEETINGS` meetings in timed
/// batches. `check` runs the theorem gates on the final peers; `hub`
/// attaches the engine's own telemetry (traced run only).
fn rep(
    ds: &Dataset,
    seed: u64,
    report: &mut Report,
    check: bool,
    hub: Option<Arc<TelemetryHub>>,
) -> Rep {
    let mut net = build_network(
        ds,
        JxpConfig::default(),
        SelectionStrategy::Random,
        seed,
        THREADS,
    );
    if let Some(hub) = hub {
        net.attach_telemetry(hub);
    }
    let (mut rounds, mut stolen) = (0, 0);
    let mut timed = 0.0;
    let mut per_meeting_ms = Vec::with_capacity(MEETINGS / BATCH);
    let mut completed = 0;
    let mut crossed = None;
    let mut footrule = 1.0;
    for b in 1..=MEETINGS / BATCH {
        let t = Instant::now();
        let r = net.run_parallel(BATCH);
        let dt = t.elapsed().as_secs_f64();
        timed += dt;
        completed += r.meetings;
        rounds += r.rounds;
        stolen += r.stolen;
        per_meeting_ms.push(dt * 1e3 / BATCH as f64);
        if b % SAMPLE_EVERY != 0 {
            continue;
        }
        footrule = footrule_distance(&net.total_ranking(), &ds.truth_ranking, TOP_K);
        if crossed.is_none() && footrule < FOOTRULE_THRESHOLD {
            crossed = Some(net.meetings());
        }
    }
    let worst_ratio = if check {
        check_peers(net.peers(), &ds.truth, report)
    } else {
        0.0
    };
    Rep {
        meetings_per_s: completed as f64 / timed,
        timed_s: timed,
        rounds,
        stolen,
        worst_ratio,
        per_meeting_ms,
        footrule,
        meetings_to_footrule: crossed,
        hash: score_hash(&net),
        completed,
    }
}

/// Theorem gates: mass conservation (local + world = 1 within 1e-9) and
/// safety (no score above the true PageRank, Thm 5.3).
pub fn check_peers<'a>(
    peers: impl IntoIterator<Item = &'a JxpPeer>,
    truth: &[f64],
    report: &mut Report,
) -> f64 {
    let mut worst_ratio: f64 = 0.0;
    for (i, peer) in peers.into_iter().enumerate() {
        if let Err(e) = check_mass_conservation(peer) {
            report.gate(false, || format!("peer {i}: mass conservation: {e}"));
        }
        if let Err(e) = check_safety_bound(peer, truth, 1e-12) {
            report.gate(false, || format!("peer {i}: safety bound (Thm 5.3): {e}"));
        }
        for (k, &s) in peer.scores().iter().enumerate() {
            worst_ratio = worst_ratio.max(s / truth[peer.graph().page_at(k).index()]);
        }
    }
    worst_ratio
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let (setup_s, ds) = setup(seed);
    eprintln!(
        "sim-amazon: {} pages, {} links, {} peers, {MEETINGS} meetings per repetition, {THREADS} threads",
        ds.cg.graph.num_nodes(),
        ds.cg.graph.num_edges(),
        ds.fragments.len()
    );
    report.metric("setup_s", setup_s, "s");
    if trace {
        return traced(&ds, seed, report);
    }
    let reps = repeat(seconds, |k| {
        let r = rep(&ds, seed, report, k == 0, None);
        eprintln!(
            "  repetition {}: {:.1} meetings/s, footrule {:.4}, hash {:016x}",
            k + 1,
            r.meetings_per_s,
            r.footrule,
            r.hash
        );
        r
    });
    outcome(&reps, report);
}

fn outcome(reps: &[Rep], report: &mut Report) {
    let first = &reps[0];
    for r in reps {
        report.attempted += MEETINGS as u64;
        report.failed += MEETINGS as u64 - r.completed;
        report.gate(r.hash == first.hash, || {
            format!(
                "score hash {:016x} != {:016x} for the same seed",
                r.hash, first.hash
            )
        });
    }
    report.gate(first.footrule < FOOTRULE_GATE, || {
        format!(
            "footrule {:.4} after {MEETINGS} meetings is not below {FOOTRULE_GATE}",
            first.footrule
        )
    });
    let rates: Vec<f64> = reps.iter().map(|r| r.meetings_per_s).collect();
    let lat: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.per_meeting_ms.iter().copied())
        .collect();
    report.metric("throughput_per_s", median(&rates), "1/s");
    // Samples are batches, 40 per repetition: p90 has at least eight
    // beyond it, twelve once three repetitions ran.
    report.metric("latency_p50_ms", quantile(&lat, 0.5), "ms");
    report.metric("latency_tail_ms", quantile(&lat, 0.9), "ms");
    report.metric("latency_samples", lat.len() as f64, "count");
    report.metric(
        "completed_ratio",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
    );
    report.metric("quality.footrule", first.footrule, "ratio");
    report.metric(
        "quality.meetings_to_footrule",
        // Past the run's end when the threshold was not crossed.
        first
            .meetings_to_footrule
            .unwrap_or((MEETINGS + BATCH * SAMPLE_EVERY) as u64) as f64,
        "count",
    );
    report.metric("repetitions", reps.len() as f64, "count");
}

/// Replay the engine's schedule serially with spans (or without, for
/// the overhead baseline). Returns wall seconds and the score hash.
fn replay(ds: &Dataset, seed: u64, tracer: &Tracer, acc: &mut ReplayTally) -> (f64, u64) {
    let net = build_network(ds, JxpConfig::default(), SelectionStrategy::Random, seed, 1);
    let mut peers: Vec<JxpPeer> = net.peers().to_vec();
    drop(net);
    let n = peers.len();
    // The engine's draw: `jxp_bench::build_network` seeds the network
    // with `seed ^ 0x5EED`; every meeting draws a uniform initiator and
    // asks the selector for a partner. Rounds only group the draws.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut states = vec![SelectorState::default(); n];
    let strategy = SelectionStrategy::Random;
    let start = Instant::now();
    for m in 0..MEETINGS as u64 {
        let i = rng.gen_range(0..n);
        let j = select_partner(&mut states[i], &strategy, i, n, &mut rng);
        tracer.span(UNATTRIBUTED, "meeting", m, || {
            let pa = tracer.span("jxp-core", "core.payload", m, || peers[i].payload());
            let pb = tracer.span("jxp-core", "core.payload", m, || peers[j].payload());
            let valid = tracer.span("jxp-core", "core.validate", m, || {
                pa.validate().and(pb.validate())
            });
            acc.invalid += u64::from(valid.is_err());
            acc.payload_bytes += (pa.wire_size() + pb.wire_size()) as u64;
            let (a, b) = pair_mut(&mut peers, i, j);
            tracer.span("jxp-core", "core.absorb", m, || a.absorb(&pb));
            acc.iterations += a.stats().last_pr_iterations as u64;
            tracer.span("jxp-core", "core.absorb", m, || b.absorb(&pa));
            acc.iterations += b.stats().last_pr_iterations as u64;
            acc.absorbs += 2;
            // Payload teardown stays inside the meeting span: it is the
            // remainder `meet` spends outside payload and absorb.
            drop(pa);
            drop(pb);
        });
    }
    let wall = start.elapsed().as_secs_f64();
    acc.world_entries = peers.iter().map(|p| p.world().len() as u64).sum();
    let mut h = crate::report::FNV_INIT;
    for p in &peers {
        crate::report::fnv(&mut h, p.scores());
    }
    (wall, h)
}

#[derive(Default)]
struct ReplayTally {
    invalid: u64,
    payload_bytes: u64,
    iterations: u64,
    absorbs: u64,
    world_entries: u64,
}

fn pair_mut(peers: &mut [JxpPeer], i: usize, j: usize) -> (&mut JxpPeer, &mut JxpPeer) {
    assert_ne!(i, j, "a meeting needs two distinct peers");
    if i < j {
        let (lo, hi) = peers.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = peers.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

fn traced(ds: &Dataset, seed: u64, report: &mut Report) {
    // The parallel engine once, with the workspace's own telemetry hub
    // attached for round shape; its scores are the replay's reference.
    let hub = TelemetryHub::shared();
    let engine = rep(ds, seed, report, true, Some(hub.clone()));
    let round_p99 = hub
        .registry()
        .histogram("jxp_sim_round_seconds", &[])
        .snapshot()
        .quantile(0.99);
    let engine_hash = engine.hash;

    let untraced = Tracer::new(false);
    let (plain_wall, plain_hash) = replay(ds, seed, &untraced, &mut ReplayTally::default());
    let tracer = Tracer::new(true);
    let mut tally = ReplayTally::default();
    let (wall, hash) = replay(ds, seed, &tracer, &mut tally);
    for (what, h) in [("untraced", plain_hash), ("traced", hash)] {
        report.gate(h == engine_hash, || {
            format!("{what} serial replay hash {h:016x} != engine hash {engine_hash:016x}")
        });
    }
    report.gate(tally.invalid == 0, || {
        format!("{} payloads failed validation", tally.invalid)
    });
    outcome(std::slice::from_ref(&engine), report);

    let (payload_s, payload_calls) = tracer.total("core.payload");
    let (absorb_s, absorb_calls) = tracer.total("core.absorb");
    let (validate_s, _) = tracer.total("core.validate");
    let (meeting_s, _) = tracer.total("meeting");
    report.metric("core.payload.calls", payload_calls as f64, "count");
    report.metric("core.payload.s", payload_s, "s");
    report.metric("core.payload.bytes", tally.payload_bytes as f64, "bytes");
    report.metric("core.absorb.calls", absorb_calls as f64, "count");
    report.metric("core.absorb.s", absorb_s, "s");
    report.metric("core.validate.s", validate_s, "s");
    report.metric("core.world_entries", tally.world_entries as f64, "count");
    report.metric(
        "core.remainder.s",
        meeting_s - payload_s - absorb_s - validate_s,
        "s",
    );
    report.metric(
        "pagerank.iters_per_absorb",
        tally.iterations as f64 / tally.absorbs as f64,
        "iters",
    );
    report.metric("p2pnet.rounds", engine.rounds as f64, "count");
    report.metric(
        "p2pnet.round_width",
        engine.completed as f64 / engine.rounds as f64,
        "count",
    );
    report.metric(
        "p2pnet.round_s.mean",
        engine.timed_s / engine.rounds as f64,
        "s",
    );
    // Estimated from the engine's own decade-bucketed histogram.
    report.metric("p2pnet.round_s.p99", round_p99, "s");
    report.metric("pool.stolen", engine.stolen as f64, "count");
    // Meeting work measured serially in the replay, over what the
    // engine's threads had available while running the same meetings.
    report.metric(
        "pool.efficiency",
        (meeting_s / (THREADS as f64 * engine.timed_s)).min(1.0),
        "ratio",
    );
    report.metric("quality.max_truth_ratio", engine.worst_ratio, "ratio");
    report.layer_breakdown(&tracer, wall, plain_wall);
    crate::write_trace(&tracer, "sim-amazon", seed);
}
