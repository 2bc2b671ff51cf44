//! One benchmark for the JXP workspace.
//!
//! ```text
//! jxpbench --workload <sim-amazon|cluster-serve|outofcore-pr> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, measures for about
//! `--seconds` seconds, checks its outputs, and prints as the last line
//! of standard output one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced
//! run reports the per-layer ones, from spans recorded around calls
//! into each crate. See `README.md` next to this crate.

mod cluster;
mod outofcore;
mod report;
mod sim;
mod trace;

use report::Report;
use std::path::{Path, PathBuf};

/// End-to-end metrics, printed by every workload with `--trace 0`. The
/// latency percentiles are printed in the table but not here: on
/// `cluster-serve` their spread over ten runs reached 0.21 (p50) and
/// 0.36 (p99) of the median.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("max_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("completed_ratio", "ratio"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer the workload never calls reports zero.
const PER_LAYER: [(&str, &str); 72] = [
    ("core.payload.calls", "count"),
    ("core.payload.s", "s"),
    ("core.payload.bytes", "bytes"),
    ("core.absorb.calls", "count"),
    ("core.absorb.s", "s"),
    ("core.validate.s", "s"),
    ("core.world_entries", "count"),
    ("core.remainder.s", "s"),
    ("pagerank.iters_per_absorb", "iters"),
    ("pagerank.sweep.s", "s"),
    ("p2pnet.rounds", "count"),
    ("p2pnet.round_width", "count"),
    ("p2pnet.round_s.mean", "s"),
    ("p2pnet.round_s.p99", "s"),
    ("pool.stolen", "count"),
    ("pool.efficiency", "ratio"),
    ("wire.encode.s", "s"),
    ("wire.decode.s", "s"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("node.meet.s", "s"),
    ("node.handle.s", "s"),
    ("node.retries", "count"),
    ("node.meetings_failed", "count"),
    ("store.append.calls", "count"),
    ("store.append.s", "s"),
    ("store.append.bytes", "bytes"),
    ("store.checkpoint.calls", "count"),
    ("store.checkpoint.s", "s"),
    ("store.checkpoint.bytes", "bytes"),
    ("store.errors", "count"),
    ("serve.handle.s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.stale_ratio", "ratio"),
    ("loadgen.late_ms.max", "ms"),
    ("segstore.hits", "count"),
    ("segstore.misses", "count"),
    ("segstore.hit_ratio", "ratio"),
    ("segstore.bytes_read", "bytes"),
    ("segstore.resident_bytes", "bytes"),
    ("webgraph.extract.s", "s"),
    ("self_s.jxp-core", "s"),
    ("self_s.jxp-pagerank", "s"),
    ("self_s.jxp-p2pnet", "s"),
    ("self_s.jxp-pool", "s"),
    ("self_s.jxp-wire", "s"),
    ("self_s.jxp-node", "s"),
    ("self_s.jxp-store", "s"),
    ("self_s.jxp-serve", "s"),
    ("self_s.jxp-segstore", "s"),
    ("self_s.jxp-webgraph", "s"),
    ("self_share.jxp-core", "ratio"),
    ("self_share.jxp-pagerank", "ratio"),
    ("self_share.jxp-p2pnet", "ratio"),
    ("self_share.jxp-pool", "ratio"),
    ("self_share.jxp-wire", "ratio"),
    ("self_share.jxp-node", "ratio"),
    ("self_share.jxp-store", "ratio"),
    ("self_share.jxp-serve", "ratio"),
    ("self_share.jxp-segstore", "ratio"),
    ("self_share.jxp-webgraph", "ratio"),
    ("trace.unexplained_s", "s"),
    ("trace.unexplained_share", "ratio"),
    ("trace.glue_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("quality.footrule", "ratio"),
    ("quality.meetings_to_footrule", "count"),
    ("quality.max_truth_ratio", "ratio"),
    ("quality.precision_at_10", "ratio"),
    ("quality.tfidf_precision_at_10", "ratio"),
];

const WORKLOADS: [&str; 3] = ["sim-amazon", "cluster-serve", "outofcore-pr"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Scratch space for one run (segments, state directories), inside the
/// directory the benchmark runs from; removed when the run ends.
fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".jxpbench_work").join(format!("{workload}-{}", std::process::id()))
}

/// Spans of a traced run go to `.jxpbench_out/trace-<workload>-<seed>.tsv`.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let dir = Path::new(".jxpbench_out");
    let path = dir.join(format!("trace-{workload}-{seed}.tsv"));
    match std::fs::create_dir_all(dir).and_then(|()| tracer.write(&path)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: jxpbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work = work_dir(&args.workload);
    std::fs::create_dir_all(&work).expect("create the work directory");
    println!(
        "provenance: {}",
        report::provenance(&args.workload, args.seed, args.trace, &work)
    );
    let mut report = Report::default();
    let steal_before = report::cpu_ticks();
    match args.workload.as_str() {
        "sim-amazon" => sim::run(args.seed, args.seconds, args.trace, &mut report),
        "cluster-serve" => cluster::run(args.seed, args.seconds, args.trace, &work, &mut report),
        "outofcore-pr" => outofcore::run(args.seed, args.seconds, args.trace, &work, &mut report),
        _ => unreachable!("workload names are checked by the parser"),
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".jxpbench_work");
    if !args.trace {
        report.metric("max_rss_mb", report::max_rss_mb(), "MB");
    }
    // Share of host CPU time the hypervisor took while the run lasted:
    // context for a run that reads slow, not a metric of the program.
    let (steal, total) = report::cpu_ticks();
    let share = (steal - steal_before.0) as f64 / (total - steal_before.1).max(1) as f64;
    report.metric("host.steal_share", share, "ratio");
    for f in report.failures() {
        eprintln!("GATE FAILED: {f}");
    }
    print!("{}", report.table());
    if args.trace {
        report.fill_missing(&PER_LAYER);
        report.select(&PER_LAYER);
    } else {
        report.select(&END_TO_END);
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}
