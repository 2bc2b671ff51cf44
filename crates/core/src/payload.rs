//! The message a peer sends when meeting another peer.
//!
//! §3: peers "exchange the information they currently have, namely the
//! extended local graph and the score list". The payload therefore carries
//! the sender's local pages with their full out-link lists and current JXP
//! scores, the sender's world-node entries, and the sender's world-node
//! score. Crucially it carries **no page content** — the paper's
//! bandwidth argument (§6.2, Figures 11/12) rests on exactly this, and
//! [`MeetingPayload::wire_size`] is what those figures measure.
//!
//! The payload has one byte encoding, [`MeetingPayload::encode`] /
//! [`MeetingPayload::decode`]: it is the body of a `jxp-wire`
//! MeetRequest/MeetReply frame and the bulk of a `core::snapshot`
//! checkpoint, so both paths share one layout and one validator.
//!
//! ```text
//! world_score f64
//! num_pages u32,    per page:  page u32 | score f64 | num_succs u32 | succs u32…
//! num_world u32,    per entry: src u32 | out_degree u32 | score f64 | num_targets u32 | targets u32…
//! num_dangling u32, per entry: page u32 | score f64
//! ```
//!
//! Little-endian throughout.

use crate::world::WorldNode;
use bytes::{Buf, BufMut};
use jxp_webgraph::{PageId, Subgraph};

/// Knowledge about one of the sender's local pages.
#[derive(Debug, Clone, PartialEq)]
pub struct PagePayload {
    /// The page's global id.
    pub page: PageId,
    /// The sender's current JXP score for it.
    pub score: f64,
    /// The page's complete out-link list (global ids) — the receiver
    /// derives both `out(page)` and the links into its own fragment.
    pub succs: Vec<PageId>,
}

/// Knowledge about one external page relayed from the sender's world node.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldPayload {
    /// The external source page.
    pub src: PageId,
    /// Its true out-degree.
    pub out_degree: u32,
    /// The sender's learned score for it.
    pub score: f64,
    /// The link targets the sender knows (pages of the *sender's*
    /// fragment; relevant to the receiver when fragments overlap).
    pub targets: Vec<PageId>,
}

/// Everything one peer sends to another in a meeting.
#[derive(Debug, Clone, PartialEq)]
pub struct MeetingPayload {
    /// The sender's local pages: scores and full out-link lists.
    pub pages: Vec<PagePayload>,
    /// The sender's world-node entries.
    pub world: Vec<WorldPayload>,
    /// External dangling pages the sender knows about, with scores.
    /// (The sender's *local* dangling pages already appear in `pages`
    /// with an empty successor list.)
    pub world_dangling: Vec<(PageId, f64)>,
    /// The sender's current world-node score `α_w`.
    pub world_score: f64,
}

impl MeetingPayload {
    /// Assemble the payload from a peer's state.
    pub fn assemble(graph: &Subgraph, world: &WorldNode, scores: &[f64], world_score: f64) -> Self {
        assert_eq!(graph.num_pages(), scores.len(), "score list out of sync");
        let pages = (0..graph.num_pages())
            .map(|i| PagePayload {
                page: graph.page_at(i),
                score: scores[i],
                succs: graph.successors_at(i).to_vec(),
            })
            .collect();
        // WorldNode iterates in ascending PageId order (documented
        // contract), so the payload is deterministic without re-sorting.
        let world_entries: Vec<WorldPayload> = world
            .iter()
            .map(|(src, e)| WorldPayload {
                src,
                out_degree: e.out_degree,
                score: e.score,
                targets: e.targets.clone(),
            })
            .collect();
        let world_dangling: Vec<(PageId, f64)> = world.dangling_iter().collect();
        MeetingPayload {
            pages,
            world: world_entries,
            world_dangling,
            world_score,
        }
    }

    /// Sanity-check a payload received from an untrusted peer.
    ///
    /// The paper closes with the open problem of "egoistic, cheating, and
    /// malicious peers" (§7). Full strategic-lying detection is out of
    /// scope there and here, but a peer can and should reject *malformed*
    /// payloads before absorbing them: non-finite or negative scores,
    /// scores that exceed the total PageRank mass, a local score list that
    /// claims more than the whole network's authority, or duplicate or
    /// out-of-order records in any of the three lists ([`assemble`]
    /// emits each in ascending page order; a repeated world entry would
    /// otherwise be absorbed twice). Returns a description of the first
    /// violation.
    ///
    /// [`assemble`]: MeetingPayload::assemble
    pub fn validate(&self) -> Result<(), String> {
        let valid_score = |s: f64| s.is_finite() && (0.0..=1.0).contains(&s);
        if !valid_score(self.world_score) {
            return Err(format!("world score {} out of [0, 1]", self.world_score));
        }
        if !strictly_ascending(self.pages.iter().map(|p| p.page)) {
            return Err("page records not sorted / contain duplicates".into());
        }
        if !strictly_ascending(self.world.iter().map(|w| w.src)) {
            return Err("world entries not sorted / contain duplicates".into());
        }
        if !strictly_ascending(self.world_dangling.iter().map(|&(p, _)| p)) {
            return Err("dangling entries not sorted / contain duplicates".into());
        }
        let mut total = 0.0;
        for pp in &self.pages {
            if !valid_score(pp.score) {
                return Err(format!("page {:?} has invalid score {}", pp.page, pp.score));
            }
            total += pp.score;
        }
        if total > 1.0 + 1e-6 {
            return Err(format!("local score list claims total mass {total} > 1"));
        }
        for wp in &self.world {
            if !valid_score(wp.score) {
                return Err(format!(
                    "world entry {:?} has invalid score {}",
                    wp.src, wp.score
                ));
            }
            if wp.out_degree == 0 {
                return Err(format!("world entry {:?} with zero out-degree", wp.src));
            }
            if wp.targets.len() > wp.out_degree as usize {
                return Err(format!(
                    "world entry {:?} claims more targets than out-degree",
                    wp.src
                ));
            }
        }
        for &(p, s) in &self.world_dangling {
            if !valid_score(s) {
                return Err(format!("dangling entry {p:?} has invalid score {s}"));
            }
        }
        Ok(())
    }

    /// Serialized size in bytes: the quantity plotted in Figures 11/12.
    ///
    /// Accounting: 4 bytes per page id, 8 per score, 4 per out-degree or
    /// list length, 8 for the world score, 12 for the three section
    /// lengths (pages, world, dangling). This is exactly the length of
    /// [`encode`](MeetingPayload::encode)'s output, which is the
    /// `jxp-wire` frame body, so Figures 11/12 report measured bytes; the
    /// codec's fixed 12-byte frame header is the only residual delta.
    pub fn wire_size(&self) -> usize {
        let pages: usize = self
            .pages
            .iter()
            .map(|p| 4 + 8 + 4 + 4 * p.succs.len())
            .sum();
        let world: usize = self
            .world
            .iter()
            .map(|w| 4 + 4 + 8 + 4 + 4 * w.targets.len())
            .sum();
        8 + 12 + pages + world + self.world_dangling.len() * 12
    }

    /// Append the payload's encoding — exactly [`wire_size`] bytes —
    /// to `buf`.
    ///
    /// [`wire_size`]: MeetingPayload::wire_size
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_f64_le(self.world_score);
        buf.put_u32_le(self.pages.len() as u32);
        for pp in &self.pages {
            buf.put_u32_le(pp.page.0);
            buf.put_f64_le(pp.score);
            put_ids(buf, &pp.succs);
        }
        buf.put_u32_le(self.world.len() as u32);
        for wp in &self.world {
            buf.put_u32_le(wp.src.0);
            buf.put_u32_le(wp.out_degree);
            buf.put_f64_le(wp.score);
            put_ids(buf, &wp.targets);
        }
        buf.put_u32_le(self.world_dangling.len() as u32);
        for &(page, score) in &self.world_dangling {
            buf.put_u32_le(page.0);
            buf.put_f64_le(score);
        }
    }

    /// Decode one payload from the front of `buf`, advancing it past the
    /// bytes read; trailing bytes are left for the caller to judge.
    ///
    /// Every length field is checked against the remaining bytes before
    /// anything is allocated, so a corrupt count cannot drive a huge
    /// allocation. Decoding checks structure only: the result comes from
    /// an untrusted source and must pass [`validate`] before it is
    /// absorbed or restored.
    ///
    /// [`validate`]: MeetingPayload::validate
    pub fn decode(buf: &mut &[u8]) -> Result<Self, &'static str> {
        let world_score = take_f64(buf)?;
        let num_pages = take_len(buf, 16)?;
        let mut pages = Vec::with_capacity(num_pages);
        for _ in 0..num_pages {
            let page = PageId(take_u32(buf)?);
            let score = take_f64(buf)?;
            let succs = take_ids(buf)?;
            pages.push(PagePayload { page, score, succs });
        }
        let num_world = take_len(buf, 20)?;
        let mut world = Vec::with_capacity(num_world);
        for _ in 0..num_world {
            let src = PageId(take_u32(buf)?);
            let out_degree = take_u32(buf)?;
            let score = take_f64(buf)?;
            let targets = take_ids(buf)?;
            world.push(WorldPayload {
                src,
                out_degree,
                score,
                targets,
            });
        }
        let num_dangling = take_len(buf, 12)?;
        let mut world_dangling = Vec::with_capacity(num_dangling);
        for _ in 0..num_dangling {
            let page = PageId(take_u32(buf)?);
            world_dangling.push((page, take_f64(buf)?));
        }
        Ok(MeetingPayload {
            pages,
            world,
            world_dangling,
            world_score,
        })
    }

    /// Number of local pages described.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total links carried (page out-links plus world-entry links).
    pub fn num_links(&self) -> usize {
        self.pages.iter().map(|p| p.succs.len()).sum::<usize>()
            + self.world.iter().map(|w| w.targets.len()).sum::<usize>()
    }
}

/// Whether `ids` is strictly ascending (sorted, no duplicates).
fn strictly_ascending(mut ids: impl Iterator<Item = PageId>) -> bool {
    let mut last = None;
    // `None` orders before every id, so the first one always passes.
    ids.all(|id| last.replace(id) < Some(id))
}

fn put_ids(buf: &mut impl BufMut, ids: &[PageId]) {
    buf.put_u32_le(ids.len() as u32);
    for id in ids {
        buf.put_u32_le(id.0);
    }
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, &'static str> {
    if buf.remaining() < 4 {
        return Err("field overruns body");
    }
    Ok(buf.get_u32_le())
}

fn take_f64(buf: &mut &[u8]) -> Result<f64, &'static str> {
    if buf.remaining() < 8 {
        return Err("field overruns body");
    }
    Ok(buf.get_f64_le())
}

/// Read an element count and reject it if that many elements of at
/// least `min_elem` bytes cannot fit in what remains.
fn take_len(buf: &mut &[u8], min_elem: usize) -> Result<usize, &'static str> {
    let claimed = take_u32(buf)? as usize;
    if claimed > buf.remaining() / min_elem {
        return Err("length field overruns body");
    }
    Ok(claimed)
}

fn take_ids(buf: &mut &[u8]) -> Result<Vec<PageId>, &'static str> {
    let n = take_len(buf, 4)?;
    Ok((0..n).map(|_| PageId(buf.get_u32_le())).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CombineMode;
    use jxp_webgraph::GraphBuilder;

    fn fragment() -> Subgraph {
        let mut b = GraphBuilder::new();
        b.add_edge(PageId(0), PageId(1));
        b.add_edge(PageId(1), PageId(5)); // external target
        let g = b.build();
        Subgraph::from_pages(&g, [PageId(0), PageId(1)])
    }

    #[test]
    fn assemble_captures_pages_and_world() {
        let graph = fragment();
        let mut world = WorldNode::new();
        world.upsert(PageId(9), 3, 0.2, [PageId(0)], CombineMode::TakeMax);
        let p = MeetingPayload::assemble(&graph, &world, &[0.4, 0.3], 0.3);
        assert_eq!(p.num_pages(), 2);
        assert_eq!(p.pages[0].page, PageId(0));
        assert_eq!(p.pages[0].succs, vec![PageId(1)]);
        assert_eq!(p.pages[1].succs, vec![PageId(5)]);
        assert_eq!(p.world.len(), 1);
        assert_eq!(p.world[0].src, PageId(9));
        assert_eq!(p.world_score, 0.3);
        assert_eq!(p.num_links(), 3);
    }

    #[test]
    fn wire_size_matches_accounting() {
        let graph = fragment();
        let world = WorldNode::new();
        let p = MeetingPayload::assemble(&graph, &world, &[0.4, 0.3], 0.3);
        // Two pages, one succ each: 2 × (4+8+4+4) = 40; world score plus
        // three section lengths: 8 + 12 = 20.
        assert_eq!(p.wire_size(), 20 + 40);
    }

    #[test]
    fn world_entries_are_sorted() {
        let graph = fragment();
        let mut world = WorldNode::new();
        for src in [9u32, 3, 7] {
            world.upsert(PageId(src), 1, 0.1, [PageId(0)], CombineMode::TakeMax);
        }
        let p = MeetingPayload::assemble(&graph, &world, &[0.4, 0.3], 0.3);
        let srcs: Vec<u32> = p.world.iter().map(|w| w.src.0).collect();
        assert_eq!(srcs, vec![3, 7, 9]);
    }

    #[test]
    fn honest_payload_validates() {
        let graph = fragment();
        let mut world = WorldNode::new();
        world.upsert(PageId(9), 3, 0.2, [PageId(0)], CombineMode::TakeMax);
        world.upsert_dangling(PageId(11), 0.05, CombineMode::TakeMax);
        let p = MeetingPayload::assemble(&graph, &world, &[0.4, 0.3], 0.3);
        p.validate().unwrap();
    }

    #[test]
    fn malicious_payloads_are_rejected() {
        let graph = fragment();
        let world = WorldNode::new();
        let honest = MeetingPayload::assemble(&graph, &world, &[0.4, 0.3], 0.3);

        // Inflated single score.
        let mut evil = honest.clone();
        evil.pages[0].score = 5.0;
        assert!(evil.validate().is_err());

        // NaN score.
        let mut evil = honest.clone();
        evil.pages[1].score = f64::NAN;
        assert!(evil.validate().is_err());

        // Claims more total mass than exists.
        let mut evil = honest.clone();
        evil.pages[0].score = 0.9;
        evil.pages[1].score = 0.9;
        assert!(evil.validate().is_err());

        // Duplicate page records.
        let mut evil = honest.clone();
        let dup = evil.pages[0].clone();
        evil.pages.insert(1, dup);
        assert!(evil.validate().is_err());

        // World entry with impossible structure.
        let mut evil = honest.clone();
        evil.world.push(WorldPayload {
            src: PageId(9),
            out_degree: 1,
            score: 0.1,
            targets: vec![PageId(0), PageId(1)],
        });
        assert!(evil.validate().is_err());

        // Bad world score.
        let mut evil = honest.clone();
        evil.world_score = -0.2;
        assert!(evil.validate().is_err());
    }

    #[test]
    fn duplicate_or_unsorted_world_entries_are_rejected() {
        let graph = fragment();
        let mut world = WorldNode::new();
        world.upsert(PageId(9), 3, 0.2, [PageId(0)], CombineMode::TakeMax);
        world.upsert_dangling(PageId(11), 0.05, CombineMode::TakeMax);
        world.upsert_dangling(PageId(12), 0.05, CombineMode::TakeMax);
        let honest = MeetingPayload::assemble(&graph, &world, &[0.4, 0.3], 0.3);
        honest.validate().unwrap();

        // A repeated world source would be upserted twice by absorb.
        let mut evil = honest.clone();
        evil.world.push(evil.world[0].clone());
        let err = evil.validate().unwrap_err();
        assert!(err.contains("world entries"), "{err}");

        // Dangling entries out of order.
        let mut evil = honest.clone();
        evil.world_dangling.reverse();
        let err = evil.validate().unwrap_err();
        assert!(err.contains("dangling entries"), "{err}");
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn mismatched_score_list_panics() {
        let graph = fragment();
        let world = WorldNode::new();
        let _ = MeetingPayload::assemble(&graph, &world, &[0.4], 0.3);
    }
}
