//! Word-level bitmap kernels over transaction identifiers.
//!
//! [`TidBitmap`] is the storage and kernel layer beneath
//! [`crate::TidSet`]: a flat array of 64-bit words over a fixed universe
//! `0..universe`, giving branch-free AND / ANDNOT / OR, hardware-popcount
//! support counting, subset and disjointness tests, and an ascending
//! iterator over set tids. The miner's hot path — tid-set intersection in
//! the enumeration loop and the dropped-transaction scan behind the
//! incremental frequentness DP — runs directly on these kernels.
//!
//! The layout is cache-friendly by construction: one contiguous `Vec<u64>`
//! per set, tid `t` at bit `t % 64` of word `t / 64`, so every kernel is a
//! single linear pass over (pairs of) word arrays. The binary kernels and
//! their fused popcounts run in 4×u64 chunks with a scalar tail — a shape
//! LLVM autovectorizes to wide vector ops where the target has them.
//!
//! A 64-bit [`TidBitmap::fingerprint`] (a splitmix64 fold of the words)
//! keys the evaluator's bound-input memoization; collisions are handled by
//! full equality verification at the cache, never assumed away.

use std::fmt;

/// Splitmix64 finalizer — the mixing function folding words into a
/// [`TidBitmap::fingerprint`].
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Apply `f` word-wise over `(a, b)` into `out`, 4 words per iteration
/// with a scalar tail. Every word of `out` is written.
#[inline]
fn zip_words_into(a: &[u64], b: &[u64], out: &mut [u64], f: impl Fn(u64, u64) -> u64 + Copy) {
    debug_assert!(a.len() == b.len() && a.len() == out.len());
    let mut oc = out.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        o[0] = f(x[0], y[0]);
        o[1] = f(x[1], y[1]);
        o[2] = f(x[2], y[2]);
        o[3] = f(x[3], y[3]);
    }
    for ((o, &x), &y) in oc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *o = f(x, y);
    }
}

/// Fused popcount of `f(a, b)` word-wise, 4 words per iteration with
/// independent accumulators so the popcounts pipeline.
#[inline]
fn zip_words_count(a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64 + Copy) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    for (x, y) in (&mut ac).zip(&mut bc) {
        c0 += f(x[0], y[0]).count_ones() as usize;
        c1 += f(x[1], y[1]).count_ones() as usize;
        c2 += f(x[2], y[2]).count_ones() as usize;
        c3 += f(x[3], y[3]).count_ones() as usize;
    }
    let mut total = c0 + c1 + c2 + c3;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        total += f(x, y).count_ones() as usize;
    }
    total
}

/// A fixed-universe bitmap over transaction ids `0..universe`.
///
/// # Examples
///
/// ```
/// use utdb::bitset::TidBitmap;
/// let a = TidBitmap::from_tids(100, [1, 4, 70]);
/// let b = TidBitmap::from_tids(100, [4, 70, 90]);
/// assert_eq!(a.and_count(&b), 2);
/// assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![4, 70]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TidBitmap {
    words: Vec<u64>,
    universe: usize,
}

impl TidBitmap {
    /// An empty bitmap over `0..universe`.
    pub fn new(universe: usize) -> Self {
        Self {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// The full bitmap `0..universe`.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::new(universe);
        for (i, w) in s.words.iter_mut().enumerate() {
            let lo = i * 64;
            let bits = universe.saturating_sub(lo).min(64);
            *w = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
        s
    }

    /// Build from an iterator of tids.
    ///
    /// # Panics
    ///
    /// Panics if a tid is out of the universe.
    pub fn from_tids<I: IntoIterator<Item = usize>>(universe: usize, tids: I) -> Self {
        let mut s = Self::new(universe);
        for tid in tids {
            s.insert(tid);
        }
        s
    }

    /// The universe size this bitmap was created with.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The backing words, tid `t` at bit `t % 64` of word `t / 64`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of backing 64-bit words (`ceil(universe / 64)`) — the unit
    /// the miner's `bitmap_words` counter is denominated in.
    #[inline]
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Set bit `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid >= universe`.
    #[inline]
    pub fn insert(&mut self, tid: usize) {
        assert!(tid < self.universe, "tid {tid} out of universe");
        self.words[tid / 64] |= 1u64 << (tid % 64);
    }

    /// Clear bit `tid` if set.
    #[inline]
    pub fn remove(&mut self, tid: usize) {
        if tid < self.universe {
            self.words[tid / 64] &= !(1u64 << (tid % 64));
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, tid: usize) -> bool {
        tid < self.universe && self.words[tid / 64] >> (tid % 64) & 1 == 1
    }

    /// Number of set bits (hardware popcount over the words).
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∩ other` as a new bitmap.
    ///
    /// # Panics
    ///
    /// Panics on mismatched universes.
    pub fn and(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a & b)
    }

    /// `self ∩ other` written into `out`, reusing its allocation —
    /// the arena-recycling variant of [`TidBitmap::and`]. Every word of
    /// `out` is overwritten (stale contents never leak through), so
    /// recycled buffers stay safe for the miner's bit-identical
    /// determinism contract.
    ///
    /// # Panics
    ///
    /// Panics on mismatched universes between `self` and `other` (`out`
    /// may have any prior shape; it is resized).
    pub fn and_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        out.universe = self.universe;
        out.words.resize(self.words.len(), 0);
        zip_words_into(&self.words, &other.words, &mut out.words, |a, b| a & b);
    }

    /// `self \ other` as a new bitmap.
    pub fn and_not(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a & !b)
    }

    /// `self ∪ other` as a new bitmap.
    pub fn or(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a | b)
    }

    /// In-place `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics on mismatched universes.
    pub fn and_assign(&mut self, other: &Self) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place `self &= !other`.
    ///
    /// # Panics
    ///
    /// Panics on mismatched universes.
    pub fn and_not_assign(&mut self, other: &Self) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `|self ∩ other|` without allocating (fused AND + popcount).
    #[inline]
    pub fn and_count(&self, other: &Self) -> usize {
        debug_assert_eq!(self.universe, other.universe);
        zip_words_count(&self.words, &other.words, |a, b| a & b)
    }

    /// `|self \ other|` without allocating (fused ANDNOT + popcount).
    #[inline]
    pub fn and_not_count(&self, other: &Self) -> usize {
        debug_assert_eq!(self.universe, other.universe);
        zip_words_count(&self.words, &other.words, |a, b| a & !b)
    }

    /// Is `self ⊆ other`?
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Do the two bitmaps share no tid?
    #[inline]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterate the set tids in ascending order.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterate the tids of `self \ other` in ascending order without
    /// materializing the difference — the kernel behind the incremental
    /// DP's dropped-transaction scan.
    ///
    /// # Panics
    ///
    /// Panics on mismatched universes (debug builds).
    pub fn diff_iter<'a>(&'a self, other: &'a Self) -> DiffBits<'a> {
        debug_assert_eq!(self.universe, other.universe);
        DiffBits {
            a: &self.words,
            b: &other.words,
            word_idx: 0,
            current: match (self.words.first(), other.words.first()) {
                (Some(&a), Some(&b)) => a & !b,
                _ => 0,
            },
        }
    }

    /// Extend the universe to `new_universe`, keeping every set bit. The
    /// new tids come in cleared. Growing is the only direction that keeps
    /// existing kernels valid (shrinking could strand set bits past the
    /// boundary), so shrink attempts panic.
    ///
    /// # Panics
    ///
    /// Panics if `new_universe < universe`.
    pub fn grow(&mut self, new_universe: usize) {
        assert!(
            new_universe >= self.universe,
            "cannot shrink universe {} to {new_universe}",
            self.universe
        );
        self.universe = new_universe;
        self.words.resize(new_universe.div_ceil(64), 0);
    }

    /// A 64-bit fingerprint of the bitmap contents (splitmix64 fold over
    /// the words and the universe). Deterministic across runs and
    /// platforms; used as an LRU cache key. Distinct bitmaps *can*
    /// collide — callers must verify equality on hit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix64(self.universe as u64 ^ 0x7fcb_5a1d_93e4_206f);
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                h ^= mix64(w ^ mix64(i as u64));
            }
        }
        h
    }

    /// The positions of `other`'s tids among `self`'s: bit `i` of the
    /// result is set iff the `i`-th smallest tid of `self` is in `other`.
    /// The result's universe is `self.count()`.
    ///
    /// This is a parallel bit extract (PEXT) of `other` under `self`, one
    /// word at a time: the hardware instruction where the CPU has `bmi2`,
    /// a software loop over `self`'s set bits elsewhere. Both give the
    /// same bits.
    ///
    /// # Panics
    ///
    /// Panics on mismatched universes.
    ///
    /// # Examples
    ///
    /// ```
    /// use utdb::bitset::TidBitmap;
    /// let x = TidBitmap::from_tids(100, [3, 10, 64, 99]);
    /// let e = TidBitmap::from_tids(100, [10, 50, 99]);
    /// assert_eq!(x.positions_of(&e), TidBitmap::from_tids(4, [1, 3]));
    /// ```
    pub fn positions_of(&self, other: &Self) -> Self {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut out = Self::new(self.count());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: the CPU supports bmi2, checked just above.
            unsafe { compact_bmi2(&self.words, &other.words, &mut out.words) };
            return out;
        }
        compact_soft(&self.words, &other.words, &mut out.words);
        out
    }

    fn zip_with(&self, other: &Self, f: impl Fn(u64, u64) -> u64 + Copy) -> Self {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut words = vec![0u64; self.words.len()];
        zip_words_into(&self.words, &other.words, &mut words, f);
        Self {
            words,
            universe: self.universe,
        }
    }
}

/// Append the low `len` bits of `bits` (higher bits clear) to `out` at
/// bit offset `at`.
#[inline(always)]
fn append_bits(out: &mut [u64], at: usize, bits: u64, len: u32) {
    let (word, shift) = (at / 64, at % 64);
    if len == 0 {
        return;
    }
    out[word] |= bits << shift;
    if shift + len as usize > 64 {
        out[word + 1] |= bits >> (64 - shift);
    }
}

/// Software PEXT: the bits of `src` at the set positions of `mask`,
/// packed into the low bits in ascending order.
#[inline(always)]
fn pext_soft(src: u64, mut mask: u64) -> u64 {
    let mut packed = 0u64;
    let mut i = 0u32;
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        packed |= u64::from(src & low != 0) << i;
        i += 1;
        mask ^= low;
    }
    packed
}

/// [`TidBitmap::positions_of`] over raw words, with `pext` extracting
/// one word.
#[inline(always)]
fn compact_with(x: &[u64], other: &[u64], out: &mut [u64], pext: impl Fn(u64, u64) -> u64) {
    let mut at = 0usize;
    for (&xw, &ow) in x.iter().zip(other) {
        let len = xw.count_ones();
        append_bits(out, at, pext(ow, xw), len);
        at += len as usize;
    }
}

/// [`compact_with`] over [`pext_soft`].
fn compact_soft(x: &[u64], other: &[u64], out: &mut [u64]) {
    compact_with(x, other, out, pext_soft);
}

/// [`compact_with`] over the `bmi2` PEXT instruction.
///
/// # Safety
///
/// The CPU must support `bmi2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn compact_bmi2(x: &[u64], other: &[u64], out: &mut [u64]) {
    compact_with(x, other, out, |src, mask| {
        std::arch::x86_64::_pext_u64(src, mask)
    });
}

impl fmt::Debug for TidBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending iterator over the set bits of a [`TidBitmap`].
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a TidBitmap {
    type Item = usize;
    type IntoIter = SetBits<'a>;

    fn into_iter(self) -> SetBits<'a> {
        self.iter()
    }
}

/// Ascending iterator over `a \ b` (see [`TidBitmap::diff_iter`]).
pub struct DiffBits<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for DiffBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.a.len() {
                return None;
            }
            self.current = self.a[self.word_idx] & !self.b[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_cross_word_boundaries() {
        let a = TidBitmap::from_tids(200, [0, 63, 64, 127, 128, 199]);
        let b = TidBitmap::from_tids(200, [63, 64, 199]);
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![63, 64, 199]);
        assert_eq!(a.and_not(&b).iter().collect::<Vec<_>>(), vec![0, 127, 128]);
        assert_eq!(a.and_count(&b), 3);
        assert_eq!(a.and_not_count(&b), 3);
        assert!(b.is_subset(&a));
        assert_eq!(
            a.diff_iter(&b).collect::<Vec<_>>(),
            vec![0, 127, 128],
            "diff_iter equals materialized and_not"
        );
    }

    #[test]
    fn in_place_kernels_match_allocating_ones() {
        let a = TidBitmap::from_tids(130, [1, 65, 100, 129]);
        let b = TidBitmap::from_tids(130, [65, 129]);
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c, a.and(&b));
        let mut d = a.clone();
        d.and_not_assign(&b);
        assert_eq!(d, a.and_not(&b));
    }

    #[test]
    fn full_and_empty() {
        for n in [0, 1, 63, 64, 65, 128, 200] {
            let full = TidBitmap::full(n);
            assert_eq!(full.count(), n);
            assert!(TidBitmap::new(n).is_empty());
        }
    }

    #[test]
    fn fingerprint_discriminates_and_is_stable() {
        let a = TidBitmap::from_tids(100, [1, 50, 99]);
        let b = TidBitmap::from_tids(100, [1, 50, 98]);
        let a2 = TidBitmap::from_tids(100, [1, 50, 99]);
        assert_eq!(a.fingerprint(), a2.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Different universes with the same bits hash differently.
        let c = TidBitmap::from_tids(101, [1, 50, 99]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Empty bitmaps hash by universe only.
        assert_ne!(
            TidBitmap::new(10).fingerprint(),
            TidBitmap::new(11).fingerprint()
        );
    }

    #[test]
    fn grow_preserves_bits_and_clears_new_range() {
        for (from, to) in [(0, 1), (5, 64), (64, 65), (70, 70), (63, 200)] {
            let tids: Vec<usize> = (0..from).step_by(3).collect();
            let mut grown = TidBitmap::from_tids(from, tids.iter().copied());
            grown.grow(to);
            assert_eq!(grown.universe(), to);
            assert_eq!(grown.word_len(), to.div_ceil(64));
            let want = TidBitmap::from_tids(to, tids.iter().copied());
            assert_eq!(grown, want, "grow {from} -> {to}");
            // New tids are insertable and count from empty.
            for t in from..to {
                assert!(!grown.contains(t));
            }
            if to > from {
                grown.insert(to - 1);
                assert!(grown.contains(to - 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot shrink universe")]
    fn grow_refuses_to_shrink() {
        TidBitmap::new(10).grow(9);
    }

    #[test]
    fn word_access() {
        let a = TidBitmap::from_tids(70, [0, 64]);
        assert_eq!(a.word_len(), 2);
        assert_eq!(a.words(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn and_assign_mismatch_panics() {
        let mut a = TidBitmap::new(5);
        a.and_assign(&TidBitmap::new(6));
    }

    #[test]
    fn chunked_kernels_on_unaligned_tails() {
        // Word counts ≡ 0, 1, 2, 3 (mod 4): the 4×u64 main loop at every
        // scalar-tail length, against a contains()-based reference, with
        // empty and full operands included. 64·w bits = w words, so e.g.
        // 320 bits = 5 words (tail 1), 385 bits = 7 words (tail 3).
        for universe in [0, 5, 64, 65, 128, 190, 192, 257, 320, 385, 448, 512] {
            let shapes = [
                TidBitmap::full(universe),
                TidBitmap::new(universe),
                TidBitmap::from_tids(universe, (0..universe).step_by(2)),
                TidBitmap::from_tids(universe, (0..universe).filter(|t| t % 7 < 3)),
            ];
            for x in &shapes {
                for y in &shapes {
                    let want_and: Vec<usize> = (0..universe)
                        .filter(|&t| x.contains(t) && y.contains(t))
                        .collect();
                    let want_not: Vec<usize> = (0..universe)
                        .filter(|&t| x.contains(t) && !y.contains(t))
                        .collect();
                    let want_or: Vec<usize> = (0..universe)
                        .filter(|&t| x.contains(t) || y.contains(t))
                        .collect();
                    assert_eq!(
                        x.and(y).iter().collect::<Vec<_>>(),
                        want_and,
                        "n={universe}"
                    );
                    assert_eq!(x.and_count(y), want_and.len(), "n={universe}");
                    assert_eq!(
                        x.and_not(y).iter().collect::<Vec<_>>(),
                        want_not,
                        "n={universe}"
                    );
                    assert_eq!(x.and_not_count(y), want_not.len(), "n={universe}");
                    assert_eq!(x.or(y).iter().collect::<Vec<_>>(), want_or, "n={universe}");
                    // and_into fully overwrites a dirty, wrong-shaped
                    // recycled buffer.
                    let mut out = TidBitmap::full(7);
                    x.and_into(y, &mut out);
                    assert_eq!(out, x.and(y), "n={universe}");
                    assert_eq!(out.universe(), universe);
                }
            }
        }
    }
}

/// The bitmap kernels against a reference model: a sorted, deduplicated
/// `Vec<usize>` with the obvious set algebra. Every public operation must
/// agree with the model on arbitrary tid universes, including the empty
/// universe and sizes straddling word boundaries.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// An arbitrary universe plus two arbitrary subsets of it, as
    /// (universe, sorted-dedup model A, sorted-dedup model B). Candidate
    /// tids are drawn from the full range and clamped to the universe, so
    /// small universes (including the empty one) are exercised too.
    fn two_sets() -> impl Strategy<Value = (usize, Vec<usize>, Vec<usize>)> {
        let tids = || proptest::collection::vec(0usize..200, 0..64);
        (0usize..200, tids(), tids()).prop_map(|(n, mut a, mut b)| {
            for set in [&mut a, &mut b] {
                set.retain(|&t| t < n);
                set.sort_unstable();
                set.dedup();
            }
            (n, a, b)
        })
    }

    fn model_and(a: &[usize], b: &[usize]) -> Vec<usize> {
        a.iter().filter(|t| b.contains(t)).copied().collect()
    }

    fn model_and_not(a: &[usize], b: &[usize]) -> Vec<usize> {
        a.iter().filter(|t| !b.contains(t)).copied().collect()
    }

    fn model_or(a: &[usize], b: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = a.iter().chain(b).copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernels_match_sorted_vec_model(input in two_sets()) {
            let (n, a, b) = input;
            let ba = TidBitmap::from_tids(n, a.iter().copied());
            let bb = TidBitmap::from_tids(n, b.iter().copied());

            // Round trip and membership.
            prop_assert_eq!(ba.iter().collect::<Vec<_>>(), a.clone());
            prop_assert_eq!(ba.count(), a.len());
            prop_assert_eq!(ba.is_empty(), a.is_empty());
            for t in 0..n {
                prop_assert_eq!(ba.contains(t), a.contains(&t));
            }

            // Binary kernels.
            let and = model_and(&a, &b);
            let and_not = model_and_not(&a, &b);
            prop_assert_eq!(ba.and(&bb).iter().collect::<Vec<_>>(), and.clone());
            prop_assert_eq!(ba.and_not(&bb).iter().collect::<Vec<_>>(), and_not.clone());
            prop_assert_eq!(ba.or(&bb).iter().collect::<Vec<_>>(), model_or(&a, &b));
            prop_assert_eq!(ba.and_count(&bb), and.len());
            prop_assert_eq!(ba.and_not_count(&bb), and_not.len());
            prop_assert_eq!(ba.diff_iter(&bb).collect::<Vec<_>>(), and_not.clone());

            // In-place variants agree with the allocating ones.
            let mut c = ba.clone();
            c.and_assign(&bb);
            prop_assert_eq!(&c, &ba.and(&bb));
            // and_into into a dirty recycled buffer matches too.
            let mut recycled = TidBitmap::full(97);
            ba.and_into(&bb, &mut recycled);
            prop_assert_eq!(&recycled, &ba.and(&bb));
            let mut d = ba.clone();
            d.and_not_assign(&bb);
            prop_assert_eq!(&d, &ba.and_not(&bb));

            // Predicates.
            prop_assert_eq!(ba.is_subset(&bb), a.iter().all(|t| b.contains(t)));
            prop_assert_eq!(ba.is_disjoint(&bb), and.is_empty());

            // Fingerprints of equal sets agree (the cache relies on it).
            let rebuilt = TidBitmap::from_tids(n, a.iter().copied());
            prop_assert_eq!(ba.fingerprint(), rebuilt.fingerprint());
            if a != b {
                prop_assert!(ba.fingerprint() != bb.fingerprint());
            }
        }

        /// `positions_of` against a per-position model, at universes
        /// ≡ 0, 1 and 63 (mod 64), on the software and (where the CPU
        /// has it) the `bmi2` path.
        #[test]
        fn positions_of_matches_per_position_model(
            words in 0usize..5,
            residue in 0usize..3,
            density_x in 0u32..=8,
            density_e in 0u32..=8,
            seed in any::<u64>(),
        ) {
            let n = 64 * words + [0, 1, 63][residue];
            let mut state = seed | 1;
            let mut draw = |density: u32| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 8) < u64::from(density)
            };
            let x: Vec<usize> = (0..n).filter(|_| draw(density_x)).collect();
            let e: Vec<usize> = (0..n).filter(|_| draw(density_e)).collect();
            let bx = TidBitmap::from_tids(n, x.iter().copied());
            let be = TidBitmap::from_tids(n, e.iter().copied());
            let model: Vec<usize> = x
                .iter()
                .enumerate()
                .filter(|(_, t)| e.contains(t))
                .map(|(i, _)| i)
                .collect();
            let got = bx.positions_of(&be);
            prop_assert_eq!(got.universe(), x.len());
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), model.clone());
            let mut soft = TidBitmap::new(x.len());
            compact_soft(bx.words(), be.words(), &mut soft.words);
            prop_assert_eq!(&soft, &got);
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("bmi2") {
                let mut hard = TidBitmap::new(x.len());
                // SAFETY: bmi2 is available, checked just above.
                unsafe { compact_bmi2(bx.words(), be.words(), &mut hard.words) };
                prop_assert_eq!(&hard, &got);
            }
        }

        #[test]
        fn insert_remove_match_model(input in two_sets()) {
            let (n, a, _) = input;
            let mut bitmap = TidBitmap::new(n);
            for &t in &a {
                bitmap.insert(t);
            }
            prop_assert_eq!(bitmap.iter().collect::<Vec<_>>(), a.clone());
            // Remove the first half; the rest must survive untouched.
            let half = a.len() / 2;
            for &t in &a[..half] {
                bitmap.remove(t);
            }
            prop_assert_eq!(bitmap.iter().collect::<Vec<_>>(), a[half..].to_vec());
        }
    }
}
