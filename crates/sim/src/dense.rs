//! A dense, ordered bit set over small integer ids.
//!
//! This is the storage behind the engine's *ready sets*: membership flags
//! for a fixed universe of ids (flash chips, dies) that must support O(1)
//! insert/remove/contains **and** iteration in ascending-id order — the
//! property that lets an incremental dispatcher visit exactly the ids a
//! full linear scan would have visited, in the same order, without paying
//! `O(universe)` per round. Per the workspace's hot-path rule it is a plain
//! word array: no hashing, no allocation after construction.
//!
//! Iteration cost is `O(words + members)`, where `words = universe / 64`;
//! for the mesh sizes the simulator sweeps (64–1024 chips) the word walk is
//! 1–16 machine words, which is what makes the ready-set dispatcher's
//! rounds effectively proportional to the number of *ready* chips.

/// A fixed-universe dense bit set with ascending-order iteration.
///
/// # Example
///
/// ```
/// use venice_sim::DenseBitSet;
///
/// let mut s = DenseBitSet::with_capacity(200);
/// s.insert(7);
/// s.insert(130);
/// s.insert(64);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![7, 64, 130]);
/// // Circular collection from a start id (the dispatcher's rotation).
/// let mut out = Vec::new();
/// s.collect_into_from(64, &mut out);
/// assert_eq!(out, vec![64, 130, 7]);
/// assert_eq!(s.nth(1), Some(64));
/// s.remove(64);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct DenseBitSet {
    words: Vec<u64>,
    /// Universe size (ids are `0..capacity`).
    capacity: usize,
    /// Current member count (kept incrementally; `len()` is O(1)).
    len: usize,
}

impl DenseBitSet {
    /// Creates an empty set over the universe `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseBitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// The universe size the set was constructed with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id is a member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        assert!(id < self.capacity, "id {id} outside universe {}", self.capacity);
        self.words[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Inserts `id`; returns true when it was not already a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[inline]
    pub fn insert(&mut self, id: usize) -> bool {
        assert!(id < self.capacity, "id {id} outside universe {}", self.capacity);
        let (w, b) = (id / 64, 1u64 << (id % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`; returns true when it was a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[inline]
    pub fn remove(&mut self, id: usize) -> bool {
        assert!(id < self.capacity, "id {id} outside universe {}", self.capacity);
        let (w, b) = (id / 64, 1u64 << (id % 64));
        let was = self.words[w] & b != 0;
        self.words[w] &= !b;
        self.len -= usize::from(was);
        was
    }

    /// Removes every member (O(words)).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            // `wrapping_sub`: `successors` computes the next value while
            // yielding the current one, so the clear-lowest-set-bit step
            // also runs on the 0 terminator `take_while` stops at.
            std::iter::successors(Some(w), |&rest| Some(rest & rest.wrapping_sub(1)))
                .take_while(|&rest| rest != 0)
                .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
        })
    }

    /// The `n`-th member in ascending order (`n` counts from 0), or `None`
    /// when the set has `n` or fewer members. Costs one popcount per word
    /// up to the answer's word.
    pub fn nth(&self, mut n: usize) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            let count = w.count_ones() as usize;
            if n < count {
                let mut rest = w;
                for _ in 0..n {
                    rest &= rest - 1;
                }
                return Some(wi * 64 + rest.trailing_zeros() as usize);
            }
            n -= count;
        }
        None
    }

    /// Collects the members into `out` (cleared first) in circular ascending
    /// order from `start`, reusing `out`'s capacity — the allocation-free
    /// form the dispatcher's per-round scratch buffer uses. This reproduces
    /// a rotated full scan (`(start + off) % capacity` for `off` in
    /// `0..capacity`) restricted to members — the dispatcher's fairness
    /// rotation — in one walk over the words.
    ///
    /// # Panics
    ///
    /// Panics if `start` is outside the universe, or (debug builds) if the
    /// universe does not fit in `u16` (the engine's chip-id width).
    pub fn collect_into_from(&self, start: usize, out: &mut Vec<u16>) {
        self.collect_words_from(start, out, |wi| self.words[wi]);
    }

    /// [`DenseBitSet::collect_into_from`] restricted to the members that are
    /// also in `mask`: the intersection, in circular ascending order from
    /// `start`, collected in the same single word walk.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a different universe, plus the panics of
    /// [`DenseBitSet::collect_into_from`].
    pub fn collect_masked_from(&self, start: usize, mask: &DenseBitSet, out: &mut Vec<u16>) {
        assert_eq!(self.capacity, mask.capacity, "mask universe differs");
        self.collect_words_from(start, out, |wi| self.words[wi] & mask.words[wi]);
    }

    /// The shared circular walk: the start word's bits at or above `start`,
    /// the words after it, the words before it, then the start word's bits
    /// below `start`. `word(i)` supplies word `i` (the set's own, or masked).
    fn collect_words_from(&self, start: usize, out: &mut Vec<u16>, word: impl Fn(usize) -> u64) {
        assert!(
            start < self.capacity || (start == 0 && self.capacity == 0),
            "start {start} outside universe {}",
            self.capacity
        );
        debug_assert!(self.capacity <= usize::from(u16::MAX) + 1);
        out.clear();
        if self.words.is_empty() {
            return;
        }
        let mut push = |wi: usize, mut bits: u64| {
            while bits != 0 {
                out.push((wi * 64 + bits.trailing_zeros() as usize) as u16);
                bits &= bits - 1;
            }
        };
        let (sw, high) = (start / 64, !0u64 << (start % 64));
        push(sw, word(sw) & high);
        for wi in (sw + 1..self.words.len()).chain(0..sw) {
            push(wi, word(wi));
        }
        push(sw, word(sw) & !high);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_len() {
        let mut s = DenseBitSet::with_capacity(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports existing");
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0), "double remove reports missing");
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty() && !s.contains(129));
        assert_eq!(s.capacity(), 130);
    }

    #[test]
    fn iteration_is_ascending_and_matches_a_linear_scan() {
        let mut s = DenseBitSet::with_capacity(256);
        let members = [3usize, 5, 63, 64, 65, 127, 128, 200, 255];
        for &m in &members {
            s.insert(m);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
    }

    #[test]
    fn collect_into_reuses_the_buffer() {
        let mut s = DenseBitSet::with_capacity(100);
        s.insert(10);
        s.insert(90);
        let mut out = Vec::new();
        s.collect_into_from(50, &mut out);
        assert_eq!(out, vec![90, 10]);
        let cap = out.capacity();
        s.collect_into_from(0, &mut out);
        assert_eq!(out, vec![10, 90]);
        assert_eq!(out.capacity(), cap, "no reallocation for same-size output");
    }

    /// Random sets at capacities 64, 256 and 1024 (the engine's chip
    /// counts): `nth` and both collectors against a linear reference, from
    /// every start — on, before and after every word edge included.
    #[test]
    fn word_walks_match_a_linear_reference() {
        let mut rng = crate::rng::Xorshift64Star::new(0xDE45E);
        for cap in [64usize, 256, 1024] {
            for density in [1u64, 8, 32, 63] {
                let (mut s, mut mask) = (
                    DenseBitSet::with_capacity(cap),
                    DenseBitSet::with_capacity(cap),
                );
                for id in 0..cap {
                    if rng.next_bounded(64) < density {
                        s.insert(id);
                    }
                    if rng.next_bool(0.5) {
                        mask.insert(id);
                    }
                }
                let members: Vec<usize> = (0..cap).filter(|&id| s.contains(id)).collect();
                for (n, &m) in members.iter().enumerate() {
                    assert_eq!(s.nth(n), Some(m), "cap {cap} nth {n}");
                }
                assert_eq!(s.nth(members.len()), None);
                let (mut plain, mut masked) = (Vec::new(), Vec::new());
                for start in 0..cap {
                    let rotated = (0..cap).map(|off| (start + off) % cap);
                    let expect: Vec<u16> = rotated
                        .clone()
                        .filter(|&id| s.contains(id))
                        .map(|id| id as u16)
                        .collect();
                    let expect_masked: Vec<u16> = rotated
                        .filter(|&id| s.contains(id) && mask.contains(id))
                        .map(|id| id as u16)
                        .collect();
                    s.collect_into_from(start, &mut plain);
                    s.collect_masked_from(start, &mask, &mut masked);
                    assert_eq!(plain, expect, "cap {cap} start {start}");
                    assert_eq!(masked, expect_masked, "cap {cap} start {start} masked");
                }
            }
        }
    }

    #[test]
    fn nth_and_collection_on_empty_sets() {
        let empty = DenseBitSet::with_capacity(0);
        let mut out = vec![1u16];
        empty.collect_into_from(0, &mut out);
        assert!(out.is_empty());
        assert_eq!(empty.nth(0), None);
        let s = DenseBitSet::with_capacity(70);
        s.collect_masked_from(69, &DenseBitSet::with_capacity(70), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_ids_are_rejected() {
        let mut s = DenseBitSet::with_capacity(8);
        s.insert(8);
    }
}
