//! Word-packed flag sets: one `u64` word per 64 flags.
//!
//! The engine keeps several per-agent and per-message flag sets on the
//! hot path — fault/down markers consulted once per op, and the staged
//! engine's delivered/lost verdicts written once per message. As dense
//! `Vec<bool>`s these cost a byte per flag and a cache line per 64
//! agents; packed, the same sets cost a bit per flag, and whole-set
//! operations (counting, copying, comparing) run word-at-a-time.
//!
//! Two access modes:
//!
//! * **Exclusive** ([`BitSet::set`], [`BitSet::clear_bit`]) — plain
//!   read-modify-write through `&mut self`, for sequential builders.
//! * **Shared-atomic** ([`BitSet::as_atomic`]) — the staged engine's
//!   parallel exchange stage resolves delivery verdicts from several
//!   worker threads whose bit indices interleave arbitrarily within a
//!   word. `as_atomic` reinterprets the word buffer as `[AtomicU64]`
//!   (same size, alignment and bit validity; exclusivity of the `&mut`
//!   borrow makes the cast sound) so shards can `fetch_or` concurrently.
//!   Every bit is still written by exactly one shard and only ever flips
//!   `0 → 1`, so the final word values are independent of interleaving —
//!   relaxed ordering suffices and determinism is preserved.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-length set of flags, 64 per word, all-zero on (re)build.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// The empty set (length 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// An all-zero set of `len` flags.
    pub fn zeros(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build from per-flag booleans.
    pub fn from_bools(flags: &[bool]) -> Self {
        let mut bs = Self::zeros(flags.len());
        for (i, &f) in flags.iter().enumerate() {
            if f {
                bs.set(i);
            }
        }
        bs
    }

    /// Re-arm in place to `len` all-zero flags, retaining the word
    /// allocation (the steady-state round path allocates nothing once
    /// the high-water mark is reached).
    pub fn reset(&mut self, len: usize) {
        let need = len.div_ceil(64);
        self.words.clear();
        self.words.resize(need, 0);
        self.len = len;
    }

    /// Number of flags.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no flags at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read flag `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Raise flag `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Lower flag `i`.
    #[inline]
    pub fn clear_bit(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Number of raised flags (word-parallel popcount).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The flags as booleans, index order.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Iterator over the indices of raised flags, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// The word buffer (flag `i` is bit `i % 64` of word `i / 64`), for
    /// builders that produce whole words. Bits at or past
    /// [`BitSet::len`] must stay zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Reinterpret the word buffer for shared-atomic writes (see the
    /// module docs). The `&mut` receiver guarantees no other reference
    /// observes the words while atomics alias them.
    pub fn as_atomic(&mut self) -> &[AtomicU64] {
        const {
            assert!(std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>());
            assert!(std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>());
        }
        // SAFETY: AtomicU64 has the same size, alignment and bit
        // validity as u64 (asserted above), and the exclusive borrow of
        // `self` is held for the returned lifetime, so no non-atomic
        // access can race the atomic view.
        unsafe { &*(self.words.as_mut_slice() as *mut [u64] as *const [AtomicU64]) }
    }
}

/// Raise flag `i` through an atomic view ([`BitSet::as_atomic`]).
#[inline]
pub fn atomic_set(words: &[AtomicU64], i: usize) {
    words[i >> 6].fetch_or(1u64 << (i & 63), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_round_trip() {
        let mut bs = BitSet::zeros(130);
        assert_eq!(bs.len(), 130);
        assert_eq!(bs.count_ones(), 0);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!bs.get(i));
            bs.set(i);
            assert!(bs.get(i));
        }
        assert_eq!(bs.count_ones(), 8);
        bs.clear_bit(64);
        assert!(!bs.get(64));
        assert_eq!(bs.count_ones(), 7);
    }

    #[test]
    fn from_bools_matches_to_bools() {
        let flags: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let bs = BitSet::from_bools(&flags);
        assert_eq!(bs.to_bools(), flags);
        assert_eq!(bs.count_ones(), flags.iter().filter(|&&f| f).count());
        assert_eq!(
            bs.ones().collect::<Vec<_>>(),
            (0..100usize).filter(|i| i % 3 == 0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reset_retains_capacity_and_zeroes() {
        let mut bs = BitSet::zeros(200);
        bs.set(77);
        bs.set(199);
        bs.reset(150);
        assert_eq!(bs.len(), 150);
        assert_eq!(bs.count_ones(), 0);
        assert!(!bs.get(77));
    }

    #[test]
    fn atomic_view_sets_bits_concurrently() {
        let mut bs = BitSet::zeros(1024);
        let atomic = bs.as_atomic();
        std::thread::scope(|scope| {
            for shard in 0..4usize {
                scope.spawn(move || {
                    // Interleaved indices: every shard touches every word.
                    for i in (shard..1024).step_by(4) {
                        atomic_set(atomic, i);
                    }
                });
            }
        });
        assert_eq!(bs.count_ones(), 1024);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = BitSet::zeros(500);
        a.reset(10);
        a.set(3);
        let mut b = BitSet::zeros(10);
        b.set(3);
        assert_eq!(a, b);
    }
}
