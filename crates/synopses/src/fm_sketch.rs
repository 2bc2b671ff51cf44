//! Flajolet–Martin hash sketches (PCSA) for distinct counting.
//!
//! The paper cites hash sketches (reference 19) among its synopsis fundamentals and
//! notes (§3) that the global page count `N` — which JXP assumes known —
//! can be obtained with "efficient techniques for distributed counting
//! with duplicate elimination". The FM sketch is precisely that technique:
//! it is **duplicate-insensitive** (inserting the same page twice changes
//! nothing) and **mergeable** (bitwise OR), so peers can gossip sketches of
//! their local page sets during JXP meetings and converge on an estimate
//! of `N` without any coordinator. `jxp-p2pnet::count` builds on this.

use crate::splitmix64;

/// The standard PCSA bias-correction constant φ.
const PHI: f64 = 0.77351;

/// A Flajolet–Martin sketch with stochastic averaging: `num_buckets`
/// bitmaps, each recording the least-significant-zero positions of hashed
/// keys routed to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FmSketch {
    bitmaps: Vec<u64>,
}

impl FmSketch {
    /// Create a sketch with `num_buckets` bitmaps. More buckets → lower
    /// variance (standard error ≈ 0.78/√buckets).
    ///
    /// # Panics
    /// Panics if `num_buckets == 0`.
    pub fn new(num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        FmSketch {
            bitmaps: vec![0; num_buckets],
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.bitmaps.len()
    }

    /// Wire size in bytes: the bitmaps plus a bucket-count prefix.
    pub fn wire_size(&self) -> usize {
        4 + self.bitmaps.len() * 8
    }

    /// Insert a key. Duplicate insertions are no-ops by construction.
    pub fn insert(&mut self, key: u64) {
        let h = splitmix64(key ^ 0xFEED_FACE_CAFE_BEEF);
        let bucket = (h % self.bitmaps.len() as u64) as usize;
        let rest = h / self.bitmaps.len() as u64;
        // Position of the lowest zero... FM uses the number of trailing
        // ones of the hash (geometric distribution).
        let r = rest.trailing_ones().min(63);
        self.bitmaps[bucket] |= 1u64 << r;
    }

    /// Merge another sketch into this one (set union). Both sketches must
    /// have the same bucket count.
    ///
    /// # Panics
    /// Panics on bucket-count mismatch.
    pub fn merge(&mut self, other: &FmSketch) {
        assert_eq!(
            self.bitmaps.len(),
            other.bitmaps.len(),
            "FM sketch bucket mismatch"
        );
        for (a, b) in self.bitmaps.iter_mut().zip(other.bitmaps.iter()) {
            *a |= b;
        }
    }

    /// Estimate the number of distinct inserted keys:
    /// `(m/φ) · 2^(mean R)` where `R` is each bucket's lowest unset bit
    /// position, with the standard small-range correction.
    pub fn estimate(&self) -> f64 {
        let m = self.bitmaps.len() as f64;
        let mean_r: f64 = self
            .bitmaps
            .iter()
            .map(|&b| b.trailing_ones() as f64)
            .sum::<f64>()
            / m;
        let raw = (m / PHI) * 2f64.powf(mean_r);
        // Small-range correction (analogous to HyperLogLog's): with very
        // few elements many bitmaps are empty and the raw estimate
        // overshoots; fall back to linear counting on empty buckets.
        let empty = self.bitmaps.iter().filter(|&&b| b == 0).count();
        if empty > 0 && raw < 2.5 * m {
            return m * (m / empty as f64).ln();
        }
        raw
    }

    /// Whether no key was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.bitmaps.iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = FmSketch::new(64);
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn estimate_within_tolerance() {
        for &n in &[100u64, 1_000, 10_000, 100_000] {
            let mut s = FmSketch::new(256);
            for x in 0..n {
                s.insert(x);
            }
            let est = s.estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.25, "n = {n}, estimate = {est}, err = {err}");
        }
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut a = FmSketch::new(128);
        let mut b = FmSketch::new(128);
        for x in 0..1000u64 {
            a.insert(x);
            b.insert(x);
            b.insert(x);
            b.insert(x);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = FmSketch::new(128);
        let mut b = FmSketch::new(128);
        let mut u = FmSketch::new(128);
        for x in 0..800u64 {
            a.insert(x);
            u.insert(x);
        }
        for x in 400..1200u64 {
            b.insert(x);
            u.insert(x);
        }
        a.merge(&b);
        assert_eq!(a, u);
        let est = a.estimate();
        assert!((est - 1200.0).abs() / 1200.0 < 0.3, "estimate {est}");
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        let mut a = FmSketch::new(64);
        let mut b = FmSketch::new(64);
        for x in 0..100u64 {
            a.insert(x);
        }
        for x in 50..150u64 {
            b.insert(x);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut abb = ab.clone();
        abb.merge(&b);
        assert_eq!(ab, abb);
    }

    #[test]
    #[should_panic(expected = "bucket mismatch")]
    fn merge_mismatch_panics() {
        let mut a = FmSketch::new(32);
        let b = FmSketch::new(64);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = FmSketch::new(0);
    }
}
