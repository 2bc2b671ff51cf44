//! Network bandwidth accounting (§6.2, Figures 11/12).
//!
//! The paper measures "the message size of a peer at each meeting" and
//! plots, per meeting index, the median and first/third quartiles over all
//! peers, for the first ~50 meetings of each peer. It also reports
//! cumulative totals ("the total message cost to make the footrule
//! distance drop below 0.2 was around 461 MBytes…").

/// Per-peer, per-meeting message sizes plus running totals.
#[derive(Debug, Clone, Default)]
pub struct BandwidthLog {
    /// `per_peer[p][k]` = bytes peer `p` sent in its `k`-th meeting
    /// (payload plus piggybacked synopses).
    per_peer: Vec<Vec<u64>>,
    /// Total bytes on the wire across all meetings (both directions).
    total_bytes: u64,
    /// Bytes attributable to pre-meeting MIPs fetches.
    premeeting_bytes: u64,
}

impl BandwidthLog {
    /// Create a log for `num_peers` peers.
    pub fn new(num_peers: usize) -> Self {
        BandwidthLog {
            per_peer: vec![Vec::new(); num_peers],
            total_bytes: 0,
            premeeting_bytes: 0,
        }
    }

    /// Grow the log when a peer joins.
    pub fn add_peer(&mut self) {
        self.per_peer.push(Vec::new());
    }

    /// Drop departed peer `p`'s history with the same swap-remove the
    /// simulator applies to its peers, so the last peer's history follows
    /// it to index `p`. Totals keep the departed peer's bytes.
    pub fn remove_peer(&mut self, p: usize) {
        self.per_peer.swap_remove(p);
    }

    /// Number of peers the log tracks.
    pub fn num_peers(&self) -> usize {
        self.per_peer.len()
    }

    /// Record a meeting: each side sent `bytes_a` / `bytes_b` respectively.
    pub fn record_meeting(&mut self, peer_a: usize, bytes_a: u64, peer_b: usize, bytes_b: u64) {
        self.per_peer[peer_a].push(bytes_a);
        self.per_peer[peer_b].push(bytes_b);
        self.total_bytes += bytes_a + bytes_b;
    }

    /// Record extra bytes spent on pre-meeting synopsis fetches.
    pub fn record_premeeting(&mut self, bytes: u64) {
        self.premeeting_bytes += bytes;
        self.total_bytes += bytes;
    }

    /// Total bytes on the wire so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes spent on pre-meeting fetches.
    pub fn premeeting_bytes(&self) -> u64 {
        self.premeeting_bytes
    }

    /// Message sizes of peer `p` across its meetings.
    pub fn peer_history(&self, p: usize) -> &[u64] {
        &self.per_peer[p]
    }

    /// Quartiles (`q1, median, q3`) over all peers of the message size at
    /// each peer's `k`-th meeting (0-based) — one point of Figure 11/12.
    /// Returns `None` if no peer has had `k+1` meetings yet.
    pub fn quartiles_at_meeting(&self, k: usize) -> Option<(u64, u64, u64)> {
        let mut values: Vec<u64> = self
            .per_peer
            .iter()
            .filter_map(|h| h.get(k).copied())
            .collect();
        if values.is_empty() {
            return None;
        }
        values.sort_unstable();
        Some((
            percentile(&values, 0.25),
            percentile(&values, 0.50),
            percentile(&values, 0.75),
        ))
    }

    /// Largest number of meetings any single peer has performed.
    pub fn max_meetings_per_peer(&self) -> usize {
        self.per_peer.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut log = BandwidthLog::new(3);
        log.record_meeting(0, 100, 1, 200);
        log.record_meeting(0, 150, 2, 50);
        assert_eq!(log.total_bytes(), 500);
        assert_eq!(log.peer_history(0), &[100, 150]);
        assert_eq!(log.peer_history(1), &[200]);
        assert_eq!(log.max_meetings_per_peer(), 2);
    }

    #[test]
    fn premeeting_bytes_counted_separately_but_in_total() {
        let mut log = BandwidthLog::new(2);
        log.record_meeting(0, 100, 1, 100);
        log.record_premeeting(40);
        assert_eq!(log.premeeting_bytes(), 40);
        assert_eq!(log.total_bytes(), 240);
    }

    #[test]
    fn quartiles_over_peers() {
        let mut log = BandwidthLog::new(4);
        // First meeting of each peer: sizes 10, 20, 30, 40.
        log.record_meeting(0, 10, 1, 20);
        log.record_meeting(2, 30, 3, 40);
        let (q1, med, q3) = log.quartiles_at_meeting(0).unwrap();
        assert!(q1 <= med && med <= q3);
        assert_eq!(med, 30); // nearest-rank on [10,20,30,40]
        assert!(log.quartiles_at_meeting(1).is_none());
    }

    #[test]
    fn quartiles_with_partial_histories() {
        let mut log = BandwidthLog::new(3);
        log.record_meeting(0, 10, 1, 20);
        log.record_meeting(0, 30, 1, 40);
        // Only peers 0 and 1 have a second meeting.
        let (q1, _, q3) = log.quartiles_at_meeting(1).unwrap();
        assert_eq!((q1, q3), (30, 40));
    }

    #[test]
    fn add_peer_grows_log() {
        let mut log = BandwidthLog::new(1);
        log.add_peer();
        log.record_meeting(0, 5, 1, 6);
        assert_eq!(log.peer_history(1), &[6]);
    }
}
