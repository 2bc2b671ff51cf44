//! Table 1: CPU time of the merging procedure, full vs light-weight.
//!
//! The paper measures, per peer, the average CPU milliseconds of one
//! merging procedure (one meeting with one other peer) and lists the three
//! biggest and three smallest peers (by locally-held pages). The absolute
//! numbers are 2005 hardware; the reproduction target is the *ratio* —
//! light-weight merging is markedly cheaper, most dramatically for small
//! peers (the paper's Peer 100: 269 ms → 17 ms).

use jxp_bench::{build_network, load_dataset, ExperimentCtx};
use jxp_core::selection::SelectionStrategy;
use jxp_core::{CombineMode, JxpConfig, MergeMode};
use jxp_webgraph::generators::{amazon_2005, web_crawl_2005};
use std::fmt::Write as _;
use std::time::Duration;

/// Per-peer accumulated merge time.
#[derive(Clone, Default)]
struct PeerCost {
    total: Duration,
    meetings: u64,
}

impl PeerCost {
    fn avg_micros(&self) -> f64 {
        if self.meetings == 0 {
            return 0.0;
        }
        self.total.as_micros() as f64 / self.meetings as f64
    }
}

fn measure(ds: &jxp_bench::Dataset, merge: MergeMode, meetings: usize) -> Vec<PeerCost> {
    let cfg = JxpConfig {
        merge,
        combine: CombineMode::Average,
        ..JxpConfig::default()
    };
    // One worker thread: this experiment times each merge individually,
    // so concurrent meetings would contend for cores and skew the numbers.
    let mut net = build_network(ds, cfg, SelectionStrategy::Random, 21, 1);
    let mut costs = vec![PeerCost::default(); net.num_peers()];
    for rec in net.run_parallel(meetings).records {
        let a = &mut costs[rec.initiator];
        a.total += rec.stats.merge_time_a;
        a.meetings += 1;
        let b = &mut costs[rec.partner];
        b.total += rec.stats.merge_time_b;
        b.meetings += 1;
    }
    costs
}

fn main() {
    let ctx = ExperimentCtx::from_env(1500);
    println!(
        "== Table 1: merge CPU time per meeting (scale {}, {} meetings/mode) ==",
        ctx.scale, ctx.meetings
    );
    let mut csv = String::from("dataset,peer_rank,pages,full_us,light_us,speedup\n");
    for preset in [amazon_2005(), web_crawl_2005()] {
        let ds = load_dataset(&preset, ctx.scale);
        println!(
            "\n[{}] {} pages, {} peers",
            ds.name,
            ds.cg.graph.num_nodes(),
            ds.fragments.len()
        );
        let full = measure(&ds, MergeMode::Full, ctx.meetings);
        let light = measure(&ds, MergeMode::LightWeight, ctx.meetings);
        // Sort peers by local fragment size, descending (the paper's
        // "peers were sorted in decreasing order according to their
        // numbers of locally held pages").
        let mut order: Vec<usize> = (0..ds.fragments.len()).collect();
        order.sort_by_key(|&p| std::cmp::Reverse(ds.fragments[p].num_pages()));
        println!(
            "  {:>9} {:>8} {:>14} {:>18} {:>9}",
            "peer", "pages", "full merge µs", "light-weight µs", "speedup"
        );
        let n = order.len();
        let shown: Vec<usize> = (0..3).chain(n - 3..n).collect();
        let mut speedups = Vec::new();
        for &rank in &shown {
            let p = order[rank];
            let (f, l) = (full[p].avg_micros(), light[p].avg_micros());
            let speedup = if l > 0.0 { f / l } else { f64::NAN };
            println!(
                "  Peer {:>4} {:>8} {:>14.0} {:>18.0} {:>8.1}x",
                rank + 1,
                ds.fragments[p].num_pages(),
                f,
                l,
                speedup
            );
            let _ = writeln!(
                csv,
                "{},{},{},{:.0},{:.0},{:.2}",
                ds.name,
                rank + 1,
                ds.fragments[p].num_pages(),
                f,
                l,
                speedup
            );
            speedups.push(speedup);
        }
        // Network-wide averages for the shape check.
        let avg = |v: &[PeerCost]| {
            let (t, m): (f64, u64) = v.iter().fold((0.0, 0), |(t, m), c| {
                (t + c.total.as_micros() as f64, m + c.meetings)
            });
            t / m.max(1) as f64
        };
        let (af, al) = (avg(&full), avg(&light));
        println!(
            "  network average: full {af:.0} µs vs light-weight {al:.0} µs ({:.1}x)",
            af / al
        );
        assert!(
            af > al,
            "[{}] light-weight merging must be cheaper on average (full {af:.0} µs vs light {al:.0} µs)",
            ds.name
        );
    }
    ctx.write_csv("table1_cpu.csv", &csv);
    println!("\nShape check vs paper (Table 1): light-weight merging is significantly");
    println!("cheaper for every peer, with the largest relative gains for small peers.");
}
