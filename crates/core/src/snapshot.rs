//! Peer-state persistence.
//!
//! In a real deployment peers leave and re-join the network constantly
//! (§5.3 churn). A peer that throws away its accumulated world-node
//! knowledge on every restart pays the full warm-up cost again; this
//! module serializes the complete [`JxpPeer`] state — fragment, score
//! list, world node, configuration, statistics — into a compact binary
//! snapshot so a re-joining peer resumes where it left off. The churn
//! integration tests demonstrate the payoff.
//!
//! Format (little-endian): a header — magic `JXPP`, version, config
//! block, `N` and the two persisted statistics counters — followed by
//! the peer's [`MeetingPayload`] in its wire encoding
//! ([`MeetingPayload::encode`]). A snapshot therefore holds exactly what
//! the peer would send in a meeting plus the state a meeting does not
//! carry, and [`load`] restores it through the same
//! [`MeetingPayload::decode`] and [`MeetingPayload::validate`] that
//! guard every received payload.
//!
//! ```text
//! offset  size  field
//! 0       4     magic b"JXPP"
//! 4       4     version u32 (VERSION)
//! 8       8     epsilon f64
//! 16      8     pr_tolerance f64
//! 24      4     pr_max_iterations u32
//! 28      1     merge mode (0 = Full, 1 = LightWeight)
//! 29      1     combine mode (0 = Average, 1 = TakeMax)
//! 30      8     N f64
//! 38      8     meetings u64
//! 46      8     total_pr_iterations u64
//! 54      n     MeetingPayload encoding
//! ```

use crate::config::{CombineMode, JxpConfig, MergeMode};
use crate::payload::MeetingPayload;
use crate::peer::{JxpPeer, PeerStats};
use crate::world::WorldNode;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use jxp_webgraph::Subgraph;

const MAGIC: [u8; 4] = *b"JXPP";
const VERSION: u32 = 2;
/// Bytes before the payload encoding.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 4 + 1 + 1 + 8 + 8 + 8;

/// Serialize a peer's full state.
pub fn save(peer: &JxpPeer) -> Bytes {
    let payload = peer.payload();
    let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.wire_size());
    buf.put_slice(&MAGIC);
    buf.put_u32_le(VERSION);
    let cfg = peer.config();
    buf.put_f64_le(cfg.epsilon);
    buf.put_f64_le(cfg.pr_tolerance);
    buf.put_u32_le(cfg.pr_max_iterations as u32);
    buf.put_u8(match cfg.merge {
        MergeMode::Full => 0,
        MergeMode::LightWeight => 1,
    });
    buf.put_u8(match cfg.combine {
        CombineMode::Average => 0,
        CombineMode::TakeMax => 1,
    });
    buf.put_f64_le(peer.n_total());
    buf.put_u64_le(peer.stats().meetings);
    buf.put_u64_le(peer.stats().total_pr_iterations);
    payload.encode(&mut buf);
    buf.freeze()
}

fn err(msg: &str) -> String {
    format!("corrupt peer snapshot: {msg}")
}

/// Deserialize a peer snapshot.
///
/// # Errors
/// Returns a description of the first problem: a bad header (magic,
/// version, enum tags, epsilon, `N`), a payload that fails to decode or
/// is followed by trailing bytes, or one that
/// [`MeetingPayload::validate`] rejects.
pub fn load(mut buf: &[u8]) -> Result<JxpPeer, String> {
    if buf.remaining() < HEADER_LEN {
        return Err(err("truncated"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(err("bad magic"));
    }
    if buf.get_u32_le() != VERSION {
        return Err(err("unsupported version"));
    }
    let config = JxpConfig {
        epsilon: buf.get_f64_le(),
        pr_tolerance: buf.get_f64_le(),
        pr_max_iterations: buf.get_u32_le() as usize,
        merge: match buf.get_u8() {
            0 => MergeMode::Full,
            1 => MergeMode::LightWeight,
            _ => return Err(err("invalid merge mode")),
        },
        combine: match buf.get_u8() {
            0 => CombineMode::Average,
            1 => CombineMode::TakeMax,
            _ => return Err(err("invalid combine mode")),
        },
        // Machine-local wall-clock knob, deliberately not persisted:
        // scores are thread-count-invariant, and a snapshot may be
        // restored on hardware with different parallelism.
        threads: 1,
    };
    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
        return Err(err("epsilon out of range"));
    }
    let n_total = buf.get_f64_le();
    let stats = PeerStats {
        meetings: buf.get_u64_le(),
        last_pr_iterations: 0,
        total_pr_iterations: buf.get_u64_le(),
    };
    let payload = MeetingPayload::decode(&mut buf).map_err(err)?;
    if buf.has_remaining() {
        return Err(err("trailing bytes"));
    }
    if payload.pages.is_empty() {
        return Err(err("empty fragment"));
    }
    if !n_total.is_finite() || n_total < payload.pages.len() as f64 {
        return Err(err("N smaller than fragment"));
    }
    payload.validate().map_err(|why| err(&why))?;

    // Validated: pages strictly ascending (so scores are already in the
    // Subgraph's dense order), every score finite in [0, 1], every world
    // entry structurally sound.
    let MeetingPayload {
        pages,
        world: entries,
        world_dangling,
        world_score,
    } = payload;
    let scores = pages.iter().map(|p| p.score).collect();
    let graph = Subgraph::from_adjacency(pages.into_iter().map(|p| (p.page, p.succs)));
    let mut world = WorldNode::new();
    for e in entries {
        world.upsert(e.src, e.out_degree, e.score, e.targets, config.combine);
    }
    for (page, score) in world_dangling {
        world.upsert_dangling(page, score, config.combine);
    }
    Ok(JxpPeer::from_snapshot_parts(
        graph,
        world,
        scores,
        world_score,
        n_total,
        config,
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meeting::meet;
    use jxp_webgraph::{GraphBuilder, PageId};

    fn warmed_up_peer() -> (JxpPeer, JxpPeer) {
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        let mut c = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(2), PageId(3)]),
            4,
            JxpConfig::default(),
        );
        for _ in 0..5 {
            meet(&mut a, &mut c);
        }
        (a, c)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (a, _) = warmed_up_peer();
        let bytes = save(&a);
        let restored = load(&bytes[..]).unwrap();
        assert_eq!(restored.graph().pages(), a.graph().pages());
        assert_eq!(restored.scores(), a.scores());
        assert_eq!(restored.world_score(), a.world_score());
        assert_eq!(restored.n_total(), a.n_total());
        assert_eq!(restored.config(), a.config());
        assert_eq!(restored.stats().meetings, a.stats().meetings);
        assert_eq!(restored.world().len(), a.world().len());
        assert_eq!(restored.world().num_dangling(), a.world().num_dangling());
        for (src, e) in a.world().iter() {
            let r = restored.world().entry(src).expect("entry lost");
            assert_eq!(r, e);
        }
    }

    #[test]
    fn restored_peer_keeps_working() {
        let (a, mut c) = warmed_up_peer();
        let mut restored = load(&save(&a)[..]).unwrap();
        // The restored peer can keep meeting peers and stays valid.
        meet(&mut restored, &mut c);
        crate::invariants::check_mass_conservation(&restored).unwrap();
        assert_eq!(restored.stats().meetings, a.stats().meetings + 1);
    }

    #[test]
    fn warm_restart_beats_cold_restart() {
        let (a, mut c) = warmed_up_peer();
        // Warm restart: restored from snapshot, world knowledge intact.
        let warm = load(&save(&a)[..]).unwrap();
        assert!(!warm.world().is_empty());
        // Cold restart: same fragment, no knowledge.
        let cold = JxpPeer::new(a.graph().clone(), 4, a.config().clone());
        assert!(cold.world().is_empty());
        assert!(
            warm.local_mass() > cold.local_mass(),
            "warm {} vs cold {}",
            warm.local_mass(),
            cold.local_mass()
        );
        let _ = &mut c;
    }

    #[test]
    fn corruption_is_detected() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        // Bad magic.
        let mut bad = good.to_vec();
        bad[0] = b'X';
        assert!(load(&bad[..]).is_err());
        // Truncations at every prefix must error, never panic.
        for cut in 0..good.len().min(64) {
            assert!(load(&good[..cut]).is_err(), "prefix {cut} accepted");
        }
        // Corrupt the world score, the payload's first field, to NaN.
        let mut bad = good.to_vec();
        bad[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(load(&bad[..]).is_err());
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        // Mirrors the jxp-wire truncation rejects: every possible torn
        // prefix must come back as Err, never a panic or a short read.
        for cut in 0..good.len() {
            assert!(load(&good[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn every_single_byte_flip_is_handled_without_panicking() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        for i in 0..good.len() {
            let mut bad = good.to_vec();
            bad[i] ^= 0xFF;
            // A flip may happen to survive validation (e.g. the low
            // mantissa bits of a score); the contract is no panic and
            // no unbounded allocation, not detection of every flip.
            let _ = load(&bad[..]);
        }
    }

    #[test]
    fn corrupt_counts_cannot_drive_huge_allocations() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        // Overwrite the fragment page count (right after the header and
        // the world score) with u32::MAX: load must reject it via the
        // remaining-bytes bound instead of reserving 64 GiB.
        let count_off = HEADER_LEN + 8;
        let mut bad = good.to_vec();
        bad[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(load(&bad[..]).is_err());
    }

    #[test]
    fn nan_n_total_is_rejected() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        let n_total_off = 4 + 4 + 8 + 8 + 4 + 1 + 1;
        let mut bad = good.to_vec();
        bad[n_total_off..n_total_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(load(&bad[..]).is_err());
    }

    /// `good` with its payload rewritten by `edit`, header untouched.
    fn with_payload(good: &[u8], edit: impl FnOnce(&mut MeetingPayload)) -> Vec<u8> {
        let mut payload = MeetingPayload::decode(&mut &good[HEADER_LEN..]).unwrap();
        edit(&mut payload);
        let mut bad = good[..HEADER_LEN].to_vec();
        payload.encode(&mut bad);
        bad
    }

    #[test]
    fn load_rejects_what_validate_rejects() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        assert!(!a.world().is_empty());
        // Two page scores of 0.9: each is a valid score, together they
        // claim more than the whole network's mass.
        let bad = with_payload(&good, |p| {
            p.pages[0].score = 0.9;
            p.pages[1].score = 0.9;
        });
        let why = load(&bad).unwrap_err();
        assert!(why.contains("total mass"), "{why}");
        // A repeated world source would be upserted twice on restore.
        let bad = with_payload(&good, |p| p.world.push(p.world[0].clone()));
        let why = load(&bad).unwrap_err();
        assert!(why.contains("world entries"), "{why}");
        // Trailing bytes after the payload are corruption too.
        let mut bad = good.to_vec();
        bad.push(0);
        assert!(load(&bad).is_err());
    }
}
