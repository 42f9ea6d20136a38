//! Fast incremental state digests for divergence voting.
//!
//! Voting compares replicas after *every* request, so the digest must
//! cost O(small state + written frames), not O(full freeze). Two pieces
//! make that work:
//!
//! * **Small state** — everything except physical frames — is captured
//!   with [`IndraSystem::freeze_sans_phys`] (no frame cloning) and
//!   walked per section by [`indra_persist::encode_state_sections`],
//!   reusing the persist codec's field walk so the digest covers
//!   exactly what a checkpoint covers. Each section hashes
//!   independently, which is what lets the property tests corrupt one
//!   section and pin that the digest moves.
//! * **Physical frames** are hashed once per write epoch. Every write
//!   path bumps the frame's
//!   [write epoch](indra_mem::PhysicalMemory::frame_epoch) — the same
//!   primitive the superblock engine pins code by — so the cache keeps
//!   one `(epoch, digest)` pair per resident frame and re-hashes only
//!   frames whose epoch moved since the last call, whoever wrote them.
//!   A [restore](indra_mem::PhysicalMemory::restore_state) restarts the
//!   epochs and bumps the phys generation, which invalidates the cache
//!   wholesale; (generation, epoch) is unique per frame content.
//!   The per-frame digests fold in PPN order.
//!
//! One hash, [`word_fold`], serves the section digests, the per-frame
//! digests and the cell's output hash. It consumes 8-byte little-endian
//! words, one multiply per word, with a byte-wise tail. Its step
//! `h' = y ^ (y >> 32)` where `y = (h ^ w) * PRIME` is a bijection of
//! the 64-bit state for a fixed word `w` (odd multiplier, invertible
//! xorshift), and injective in `w` for a fixed state. So two inputs of
//! equal length differing in one byte *always* produce different
//! digests — single-byte-flip detection is a theorem, not a
//! probabilistic claim, which keeps the forall property tests
//! deterministic. The xorshift carries the product's high half down:
//! without it a flip of bit 63 moves only bit 63 of the product, and a
//! second bit-63 flip in a later word cancels it (a rotate instead of
//! the xorshift only relocates that cancelling bit to the next word).

use std::collections::BTreeMap;

use indra_core::IndraSystem;
use indra_persist::encode_state_sections;

/// The seed every digest chain starts from.
pub const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FOLD_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds one 64-bit word into the running digest `h`.
#[must_use]
#[inline]
pub fn word_fold_u64(h: u64, w: u64) -> u64 {
    let y = (h ^ w).wrapping_mul(FOLD_PRIME);
    y ^ (y >> 32)
}

/// Folds `bytes` into the running digest `h`: 8-byte little-endian
/// words first, then the tail one byte per step.
#[must_use]
pub fn word_fold(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = word_fold_u64(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        h = word_fold_u64(h, u64::from(b));
    }
    h
}

/// One replica's state digest: per-section digests for diagnosis, the
/// folded physical-frame digest, and the single `value` ballots carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDigest {
    /// Per-section digests over the persist codec's small-state walk,
    /// in codec order (machine, os, monitor, scheme, hybrids, macros,
    /// in_flight, blocked, report).
    pub sections: Vec<(&'static str, u64)>,
    /// Digest over every resident physical frame, folded in PPN order.
    pub phys: u64,
    /// The chained whole-state digest (sections then phys).
    pub value: u64,
}

/// Incremental digest state for one replica cell.
///
/// Holds an `(epoch, digest)` pair per resident PPN plus the phys
/// generation it was built against. `digest` re-hashes only frames
/// whose write epoch moved since the previous call; a generation bump
/// (state restore) or first use triggers a full rebuild. Frames are
/// never unmapped outside a restore, so the cache never holds a stale
/// resident set.
#[derive(Debug, Default)]
pub struct DigestCache {
    frames: BTreeMap<u32, (u64, u64)>,
    generation: Option<u64>,
}

impl DigestCache {
    /// An empty cache; the first `digest` call does a full build.
    #[must_use]
    pub fn new() -> DigestCache {
        DigestCache::default()
    }

    /// Digests `sys` — O(small state + written frames) when the cache
    /// is warm.
    pub fn digest(&mut self, sys: &IndraSystem) -> StateDigest {
        let phys = sys.machine().phys();
        if self.generation != Some(phys.generation()) {
            self.frames.clear();
            self.generation = Some(phys.generation());
        }
        let mut phys_digest = FOLD_SEED;
        for ppn in phys.resident_ppns() {
            let epoch = phys.frame_epoch(ppn);
            let d = match self.frames.get(&ppn) {
                Some(&(e, d)) if e == epoch => d,
                _ => {
                    let frame = phys.frame(ppn).expect("listed frame is resident");
                    let d = word_fold(FOLD_SEED, frame);
                    self.frames.insert(ppn, (epoch, d));
                    d
                }
            };
            phys_digest = word_fold_u64(phys_digest, u64::from(ppn));
            phys_digest = word_fold_u64(phys_digest, d);
        }

        let state = sys.freeze_sans_phys();
        let sections: Vec<(&'static str, u64)> = encode_state_sections(&state)
            .iter()
            .map(|(name, bytes)| (*name, word_fold(FOLD_SEED, bytes)))
            .collect();
        let mut value = FOLD_SEED;
        for &(name, d) in &sections {
            value = word_fold(value, name.as_bytes());
            value = word_fold_u64(value, d);
        }
        value = word_fold_u64(value, phys_digest);
        StateDigest { sections, phys: phys_digest, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_flip_always_changes_the_hash() {
        // The fold step is a bijection of the state for a fixed word and
        // injective in the word, so equal-length inputs differing in
        // exactly one byte must hash apart. Exercise every position of a
        // small buffer (whole words only; the tail has its own test).
        let base = [0x5au8; 64];
        let h0 = word_fold(FOLD_SEED, &base);
        for pos in 0..base.len() {
            for bit in 0..8 {
                let mut b = base;
                b[pos] ^= 1 << bit;
                assert_ne!(word_fold(FOLD_SEED, &b), h0, "flip at {pos}.{bit} collided");
            }
        }
    }

    #[test]
    fn u64_fold_is_order_sensitive() {
        let a = word_fold_u64(word_fold_u64(FOLD_SEED, 1), 2);
        let b = word_fold_u64(word_fold_u64(FOLD_SEED, 2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn two_bit_flips_in_different_words_change_the_hash() {
        // Not a theorem like the single flip, so check every pair of
        // bits in a small buffer. A plain `(h ^ w) * P` step cancels a
        // bit-63 flip with a bit-63 flip in any later word (the odd
        // multiply moves bit 63 to bit 63 only); a rotate after the
        // multiply cancels bit 63 of one word with a fixed bit of the
        // next.
        let base = [0xa5u8; 32];
        let h0 = word_fold(FOLD_SEED, &base);
        for i in 0..4 {
            for j in i + 1..4 {
                for bi in 0..64 {
                    for bj in 0..64 {
                        let mut b = base;
                        b[i * 8 + bi / 8] ^= 1 << (bi % 8);
                        b[j * 8 + bj / 8] ^= 1 << (bj % 8);
                        assert_ne!(
                            word_fold(FOLD_SEED, &b),
                            h0,
                            "flips {i}.{bi} and {j}.{bj} cancelled"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tail_byte_flip_changes_the_hash() {
        for len in [1usize, 7, 13, 21] {
            let base: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let h0 = word_fold(FOLD_SEED, &base);
            for pos in len / 8 * 8..len {
                for bit in 0..8 {
                    let mut b = base.clone();
                    b[pos] ^= 1 << bit;
                    assert_ne!(word_fold(FOLD_SEED, &b), h0, "tail flip at {pos}.{bit} of {len}");
                }
            }
        }
    }

    #[test]
    fn u64_fold_matches_the_byte_fold_of_its_le_bytes() {
        let v = 0x0123_4567_89ab_cdef;
        assert_eq!(word_fold_u64(FOLD_SEED, v), word_fold(FOLD_SEED, &v.to_le_bytes()));
    }
}
