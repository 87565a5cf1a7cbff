//! Append-only bitmap with a per-512-bit popcount rank index.
//!
//! [`BitRank`] backs the two packed-stream side structures that used to
//! be sorted `Vec`s probed by binary search:
//!
//! * the **direct-branch membership** bitmap (one bit per instruction
//!   index) whose rank gives the position of an instruction's branch
//!   target in the dense target array, and
//! * the **instruction-boundary** bitmap (one bit per byte offset,
//!   built per segment by the first address probe or by
//!   [`crate::InsnStream::seal`]) whose rank turns `insn_at`/`insns_in`
//!   address lookups into word operations.
//!
//! Layout: packed `u64` words plus one `u32` rank entry per 512-bit
//! block holding the number of set bits *before* the block. A rank
//! query touches the rank entry, at most seven whole words, and one
//! masked word — O(1) with a cache footprint of ~1.07 bits per bit.

/// Append-only rank-indexed bitmap. See the module docs.
///
/// The tail — the last `len % 64` bits — is buffered in `cur` rather
/// than materialized in `words`, so the per-instruction `push` on the
/// sweep hot path is an or-shift into one field plus a branch taken
/// once per 64 pushes (the old layout paid an indexed read-modify-write
/// and two `Vec` length checks on *every* push). Queries consult the
/// tail word transparently.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitRank {
    /// Packed *complete* words, LSB-first within each word. The partial
    /// tail lives in `cur`, so `words.len() == len / 64`.
    words: Vec<u64>,
    /// `rank[k]` = number of set bits before bit `k * 512`. One entry
    /// per block with at least one complete word:
    /// `rank.len() == words.len().div_ceil(8)`.
    rank: Vec<u32>,
    /// Number of bits pushed.
    len: usize,
    /// Set bits in `words` (the tail's ones are counted at flush time).
    ones: usize,
    /// Buffered tail word holding bits `[words.len() * 64, len)`; bits
    /// at positions `>= len % 64` are zero.
    cur: u64,
}

impl BitRank {
    /// An empty bitmap.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of bits.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Total number of set bits.
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn ones(&self) -> usize {
        self.ones + self.cur.count_ones() as usize
    }

    /// Reserves room for `bits` more bits.
    pub(crate) fn reserve(&mut self, bits: usize) {
        self.words.reserve(bits / 64);
        self.rank.reserve(bits / 512);
    }

    /// Resets to the empty set, keeping the allocated buffers (the
    /// stream buffer recycler reuses retired bitmaps).
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.rank.clear();
        self.len = 0;
        self.ones = 0;
        self.cur = 0;
    }

    /// Heap footprint in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.len() * 8 + self.rank.len() * 4
    }

    /// Word `wi` of the logical bit array, reading through the tail.
    #[inline]
    fn word(&self, wi: usize) -> u64 {
        match wi.cmp(&self.words.len()) {
            std::cmp::Ordering::Less => self.words[wi],
            std::cmp::Ordering::Equal => self.cur,
            std::cmp::Ordering::Greater => 0,
        }
    }

    /// Appends one complete word, maintaining the rank index.
    #[inline]
    fn flush_word(&mut self, w: u64) {
        if self.words.len() & 7 == 0 {
            self.rank.push(self.ones as u32);
        }
        self.words.push(w);
        self.ones += w.count_ones() as usize;
    }

    /// Appends one bit.
    #[inline]
    pub(crate) fn push(&mut self, bit: bool) {
        let t = self.len & 63;
        self.cur |= u64::from(bit) << t;
        self.len += 1;
        if t == 63 {
            let w = self.cur;
            self.cur = 0;
            self.flush_word(w);
        }
    }

    /// Bulk-appends `n` zero bits.
    pub(crate) fn push_zeros(&mut self, n: usize) {
        let t = self.len & 63;
        self.len += n;
        let mut n = n;
        if t != 0 {
            if n < 64 - t {
                return; // still inside the tail word
            }
            n -= 64 - t;
            let w = self.cur;
            self.cur = 0;
            self.flush_word(w);
        }
        let full = n / 64;
        if full > 0 {
            self.words.resize(self.words.len() + full, 0);
            self.rank.resize(self.words.len().div_ceil(8), self.ones as u32);
        }
        // The n % 64 trailing zeros are implicit in the (zeroed) tail.
    }

    /// Appends the low `n` bits of `w` (`0..=64`), LSB first — the bulk
    /// entry point behind the stream's batched pushes.
    #[inline]
    pub(crate) fn append_word(&mut self, w: u64, n: usize) {
        if n > 0 {
            self.append_bits(w, n);
        }
    }

    /// Appends the low `n` bits of `w` (`1..=64`), LSB first.
    #[inline]
    fn append_bits(&mut self, w: u64, n: usize) {
        debug_assert!((1..=64).contains(&n));
        let w = if n == 64 { w } else { w & ((1u64 << n) - 1) };
        let t = self.len & 63;
        self.len += n;
        self.cur |= w << t;
        if t + n >= 64 {
            let full = self.cur;
            // The spill is empty exactly when the append ends on the
            // word boundary (and `w >> 64` would be UB when t == 0).
            self.cur = if t == 0 { 0 } else { w >> (64 - t) };
            self.flush_word(full);
        }
    }

    /// Reads `n` bits (`1..=64`) starting at bit `pos`, LSB first.
    #[inline]
    fn read_bits(&self, pos: usize, n: usize) -> u64 {
        debug_assert!((1..=64).contains(&n) && pos + n <= self.len);
        let wi = pos >> 6;
        let sh = pos & 63;
        let mut w = self.word(wi) >> sh;
        if sh != 0 {
            w |= self.word(wi + 1) << (64 - sh);
        }
        if n == 64 {
            w
        } else {
            w & ((1u64 << n) - 1)
        }
    }

    /// Appends bits `[from, to)` of `other` — the bitmap half of the
    /// stream splice/append operations.
    pub(crate) fn extend_range(&mut self, other: &BitRank, from: usize, to: usize) {
        debug_assert!(from <= to && to <= other.len);
        let mut pos = from;
        while pos < to {
            let n = (to - pos).min(64);
            self.append_bits(other.read_bits(pos, n), n);
            pos += n;
        }
    }

    /// Whether bit `i` is set.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.word(i >> 6) >> (i & 63) & 1 != 0
    }

    /// Number of set bits strictly before bit `i` (`i` may equal `len`).
    #[inline]
    pub(crate) fn rank(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        let wi = i >> 6;
        let rem = i & 63;
        if wi >= self.words.len() {
            // The probe lands in the buffered tail: all flushed ones
            // plus the tail bits below it.
            let below =
                if rem == 0 { 0 } else { (self.cur & ((1u64 << rem) - 1)).count_ones() as usize };
            return self.ones + below;
        }
        let block = i >> 9;
        let mut r = self.rank[block] as usize;
        for w in &self.words[block << 3..wi] {
            r += w.count_ones() as usize;
        }
        if rem != 0 {
            r += (self.words[wi] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        r
    }

    /// Builds a bitmap of `universe` bits with exactly the bits in
    /// `set` (which must be strictly increasing and `< universe`) set —
    /// the bulk constructor behind the stream's boundary index. The
    /// result is field-identical to pushing the bits one at a time.
    pub(crate) fn from_sorted(universe: usize, set: &[u32]) -> BitRank {
        let mut words = vec![0u64; universe.div_ceil(64)];
        for &o in set {
            let o = o as usize;
            debug_assert!(o < universe);
            words[o >> 6] |= 1u64 << (o & 63);
        }
        let full = universe / 64;
        let cur = if universe.is_multiple_of(64) { 0 } else { words[full] };
        words.truncate(full);
        let mut rank = Vec::with_capacity(full.div_ceil(8));
        let mut ones = 0usize;
        for (wi, w) in words.iter().enumerate() {
            if wi & 7 == 0 {
                rank.push(ones as u32);
            }
            ones += w.count_ones() as usize;
        }
        debug_assert_eq!(ones + cur.count_ones() as usize, set.len());
        BitRank { words, rank, len: universe, ones, cur }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for test patterns.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn naive_rank(bits: &[bool], i: usize) -> usize {
        bits[..i].iter().filter(|&&b| b).count()
    }

    #[test]
    fn push_and_rank_match_naive_across_block_boundaries() {
        let mut x = 0x1234_5678_9abc_def0u64;
        let bits: Vec<bool> = (0..1500).map(|_| xorshift(&mut x) & 1 != 0).collect();
        let mut b = BitRank::new();
        for &bit in &bits {
            b.push(bit);
        }
        assert_eq!(b.len(), bits.len());
        assert_eq!(b.ones(), naive_rank(&bits, bits.len()));
        for i in 0..=bits.len() {
            assert_eq!(b.rank(i), naive_rank(&bits, i), "rank({i})");
            if i < bits.len() {
                assert_eq!(b.get(i), bits[i], "get({i})");
            }
        }
    }

    #[test]
    fn push_zeros_equals_individual_pushes() {
        for (pre, n) in [(0usize, 700usize), (3, 64), (63, 513), (511, 1), (512, 0), (65, 1000)] {
            let mut bulk = BitRank::new();
            let mut single = BitRank::new();
            for k in 0..pre {
                bulk.push(k % 3 == 0);
                single.push(k % 3 == 0);
            }
            bulk.push_zeros(n);
            for _ in 0..n {
                single.push(false);
            }
            assert_eq!(bulk.words, single.words, "pre={pre} n={n}");
            assert_eq!(bulk.rank, single.rank, "pre={pre} n={n}");
            assert_eq!(bulk.len, single.len);
            assert_eq!(bulk.ones, single.ones);
            assert_eq!(bulk.cur, single.cur, "pre={pre} n={n}");
        }
    }

    #[test]
    fn extend_range_equals_push_loop_at_every_alignment() {
        let mut x = 0xdead_beef_cafe_f00du64;
        let src_bits: Vec<bool> = (0..1100).map(|_| xorshift(&mut x) & 3 == 0).collect();
        let mut src = BitRank::new();
        for &bit in &src_bits {
            src.push(bit);
        }
        for pre in [0usize, 1, 63, 64, 65, 511, 512, 513, 100] {
            for (from, to) in [(0usize, 1100usize), (7, 900), (511, 513), (64, 64), (1099, 1100)] {
                let mut a = BitRank::new();
                let mut b = BitRank::new();
                for k in 0..pre {
                    a.push(k % 5 == 0);
                    b.push(k % 5 == 0);
                }
                a.extend_range(&src, from, to);
                for &bit in &src_bits[from..to] {
                    b.push(bit);
                }
                assert_eq!(a.words, b.words, "pre={pre} from={from} to={to}");
                assert_eq!(a.rank, b.rank, "pre={pre} from={from} to={to}");
                assert_eq!(a.len, b.len);
                assert_eq!(a.ones, b.ones);
                assert_eq!(a.cur, b.cur, "pre={pre} from={from} to={to}");
            }
        }
    }

    #[test]
    fn from_sorted_matches_incremental_build() {
        let set: Vec<u32> = (0..2000u32).filter(|&o| o % 7 == 0 || o % 613 == 1).collect();
        let bulk = BitRank::from_sorted(2000, &set);
        let mut inc = BitRank::new();
        let mut next = set.iter().copied().peekable();
        for o in 0..2000u32 {
            let hit = next.peek() == Some(&o);
            if hit {
                next.next();
            }
            inc.push(hit);
        }
        assert_eq!(bulk.words, inc.words);
        assert_eq!(bulk.rank, inc.rank);
        assert_eq!(bulk.len, inc.len);
        assert_eq!(bulk.ones, inc.ones);
        assert_eq!(bulk.cur, inc.cur);
        for i in [0usize, 1, 6, 7, 511, 512, 1023, 1999, 2000] {
            assert_eq!(bulk.rank(i), inc.rank(i), "rank({i})");
        }
    }

    #[test]
    fn empty_bitmap_is_well_behaved() {
        let b = BitRank::new();
        assert_eq!(b.len(), 0);
        assert_eq!(b.ones(), 0);
        assert_eq!(b.rank(0), 0);
        let e = BitRank::from_sorted(0, &[]);
        assert_eq!(e.rank(0), 0);
    }
}
