//! Peer churn: a stochastic join/leave driver over a [`Network`].
//!
//! §5.3: "peers join and leave the P2P network at high rate (the
//! so-called 'churn' phenomenon)… JXP has been designed to handle high
//! dynamics, and the algorithms themselves can easily cope with changes in
//! the Web graph, repeated crawls, or peer churn." There is no convergence
//! proof under churn (the paper defers that to future work) — this module
//! exists to *exercise* the robustness claim: the churn example and the
//! integration tests drive a network through joins and leaves and verify
//! that scores stay valid and keep approximating centralized PageRank.

use crate::sim::Network;
use jxp_core::snapshot;
use jxp_store::StateStore;
use jxp_webgraph::Subgraph;
use rand::Rng;
use std::collections::VecDeque;

/// A stochastic churn model applied between meetings.
#[derive(Debug, Clone)]
pub struct ChurnModel {
    /// Probability that a churn tick makes one peer leave.
    pub leave_prob: f64,
    /// Probability that a churn tick makes one peer join (a fragment is
    /// drawn from the replacement pool).
    pub join_prob: f64,
    /// Minimum network size: leaves are suppressed below this.
    pub min_peers: usize,
    /// Maximum network size: joins are suppressed above this.
    pub max_peers: usize,
}

impl Default for ChurnModel {
    fn default() -> Self {
        ChurnModel {
            leave_prob: 0.02,
            join_prob: 0.02,
            min_peers: 3,
            max_peers: 256,
        }
    }
}

/// What a churn tick did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Nothing happened this tick.
    None,
    /// A peer joined (new index).
    Joined(usize),
    /// A peer left (former index).
    Left(usize),
    /// A previously departed peer rejoined with its persisted state
    /// (new index). Only [`DurableChurn`] emits this.
    Rejoined(usize),
}

impl ChurnModel {
    /// Apply one churn tick to `net`, drawing replacement fragments from
    /// `pool` (round-robin by an internal cursor the caller supplies).
    pub fn tick(
        &self,
        net: &mut Network,
        pool: &[Subgraph],
        cursor: &mut usize,
        rng: &mut impl Rng,
    ) -> ChurnEvent {
        if net.num_peers() > self.min_peers && rng.gen_bool(self.leave_prob) {
            let victim = rng.gen_range(0..net.num_peers());
            net.remove_peer(victim);
            return ChurnEvent::Left(victim);
        }
        if net.num_peers() < self.max_peers && !pool.is_empty() && rng.gen_bool(self.join_prob) {
            let fragment = pool[*cursor % pool.len()].clone();
            *cursor += 1;
            net.add_peer(fragment);
            return ChurnEvent::Joined(net.num_peers() - 1);
        }
        ChurnEvent::None
    }
}

/// Churn with durability (the `jxp-store` integration): a departing peer
/// checkpoints its full state into a [`StateStore`] before it goes, and
/// a later join *resurrects* the oldest departed peer from the store —
/// with all its accumulated world knowledge and scores — instead of
/// admitting an amnesiac replacement from the fragment pool.
///
/// This models peers with local disks: in JXP a peer's world-node
/// quality is earned over many meetings, so a network whose peers
/// resume beats one whose peers restart. Everything is deterministic
/// given the rng: the decision draws are exactly [`ChurnModel::tick`]'s,
/// and the resurrection order is FIFO over departure order.
pub struct DurableChurn<S: StateStore> {
    model: ChurnModel,
    store: S,
    departed: VecDeque<String>,
    next_id: u64,
}

impl<S: StateStore> DurableChurn<S> {
    /// Durable churn following `model`'s probabilities, persisting into
    /// `store`.
    pub fn new(model: ChurnModel, store: S) -> Self {
        DurableChurn {
            model,
            store,
            departed: VecDeque::new(),
            next_id: 0,
        }
    }

    /// Keys of departed peers currently held in the store, oldest first.
    pub fn departed(&self) -> impl Iterator<Item = &str> {
        self.departed.iter().map(String::as_str)
    }

    /// The underlying store (for inspection in tests/tools).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Apply one durable churn tick: like [`ChurnModel::tick`], but a
    /// leave persists the victim and a join prefers resurrection. Falls
    /// back to a fresh `pool` fragment when the store has nobody to
    /// revive (or the revival fails to load).
    pub fn tick(
        &mut self,
        net: &mut Network,
        pool: &[Subgraph],
        cursor: &mut usize,
        rng: &mut impl Rng,
    ) -> ChurnEvent {
        if net.num_peers() > self.model.min_peers && rng.gen_bool(self.model.leave_prob) {
            let victim = rng.gen_range(0..net.num_peers());
            let peer = net.remove_peer(victim);
            let key = format!("peer-{}", self.next_id);
            self.next_id += 1;
            let snap = snapshot::save(&peer);
            // A failed checkpoint degrades to plain (stateless) churn:
            // the peer is gone either way, it just can't come back.
            if self.store.checkpoint(&key, 0, &snap).is_ok() {
                self.departed.push_back(key);
            }
            return ChurnEvent::Left(victim);
        }
        let can_join = !pool.is_empty() || !self.departed.is_empty();
        if net.num_peers() < self.model.max_peers && can_join && rng.gen_bool(self.model.join_prob)
        {
            if let Some(index) = self.revive(net) {
                return ChurnEvent::Rejoined(index);
            }
            if pool.is_empty() {
                return ChurnEvent::None;
            }
            let fragment = pool[*cursor % pool.len()].clone();
            *cursor += 1;
            net.add_peer(fragment);
            return ChurnEvent::Joined(net.num_peers() - 1);
        }
        ChurnEvent::None
    }

    /// Resurrect the oldest departed peer from the store into `net`,
    /// returning its new index — `None` when nobody is waiting (or every
    /// waiting checkpoint failed to load).
    pub fn revive(&mut self, net: &mut Network) -> Option<usize> {
        while let Some(key) = self.departed.pop_front() {
            if let Ok(Some(recovered)) = self.store.load(&key) {
                net.add_existing_peer(recovered.peer);
                return Some(net.num_peers() - 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{assign_by_crawlers, CrawlerParams};
    use crate::sim::NetworkConfig;
    use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (CategorizedGraph, Vec<Subgraph>) {
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 2,
                nodes_per_category: 80,
                intra_out_per_node: 3,
                cross_fraction: 0.2,
            },
            &mut StdRng::seed_from_u64(1),
        );
        let frags = assign_by_crawlers(
            &cg,
            &CrawlerParams {
                peers_per_category: 3,
                seeds_per_peer: 3,
                max_depth: 3,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(2),
        );
        (cg, frags)
    }

    #[test]
    fn network_survives_heavy_churn() {
        let (cg, frags) = world();
        let pool = frags.clone();
        let mut net = Network::new(
            frags,
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            5,
        );
        let model = ChurnModel {
            leave_prob: 0.3,
            join_prob: 0.3,
            min_peers: 3,
            max_peers: 10,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let mut cursor = 0;
        let mut joins = 0;
        let mut leaves = 0;
        for _ in 0..100 {
            net.run_parallel(1);
            match model.tick(&mut net, &pool, &mut cursor, &mut rng) {
                ChurnEvent::Joined(_) | ChurnEvent::Rejoined(_) => joins += 1,
                ChurnEvent::Left(_) => leaves += 1,
                ChurnEvent::None => {}
            }
        }
        assert!(joins > 0, "no joins in 100 high-churn ticks");
        assert!(leaves > 0, "no leaves in 100 high-churn ticks");
        assert!(net.num_peers() >= 3 && net.num_peers() <= 10);
        // All surviving peers still hold a valid probability mass.
        for p in net.peers() {
            jxp_core::invariants::check_mass_conservation(p).unwrap();
        }
    }

    #[test]
    fn bounds_are_respected() {
        let (cg, frags) = world();
        let pool = frags.clone();
        let mut net = Network::new(
            frags,
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            5,
        );
        let model = ChurnModel {
            leave_prob: 1.0,
            join_prob: 0.0,
            min_peers: 4,
            max_peers: 100,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut cursor = 0;
        for _ in 0..50 {
            model.tick(&mut net, &pool, &mut cursor, &mut rng);
        }
        assert_eq!(net.num_peers(), 4);
    }
}
