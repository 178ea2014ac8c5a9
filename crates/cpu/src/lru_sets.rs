//! Flat set-associative LRU storage shared by [`crate::icache::ICache`]
//! and [`crate::branch::BranchTargetBuffer`].
//!
//! Both structures are arrays of small LRU sets keyed by a `u64` tag.
//! They keep their tags here in one `sets × ways` array, set-major, with
//! a per-set occupancy count; set `s` holds its valid tags in
//! `tags[s * ways .. s * ways + len[s]]`, least recently used first. Both
//! arrays are allocated on the first access, not at construction: a
//! machine that is booted and never runs a loop (the null benchmark)
//! never pays for its front end.

/// `set_count` LRU sets of `ways` tags each, in one flat array.
#[derive(Debug, Clone)]
pub(crate) struct LruSets {
    set_count: usize,
    ways: usize,
    /// `set_count × ways` tags, set-major; empty until the first access.
    tags: Vec<u64>,
    /// Valid tags in each set; empty until the first access.
    lens: Vec<u8>,
    /// Indices of sets holding at least one tag, so [`LruSets::reset`]
    /// clears only what a run touched instead of every set.
    touched: Vec<usize>,
}

impl LruSets {
    /// Describes `set_count` sets of `ways` tags; allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ways <= 255` (occupancy is a `u8`).
    pub(crate) fn new(set_count: usize, ways: usize) -> Self {
        assert!(
            (1..=usize::from(u8::MAX)).contains(&ways),
            "associativity must be between 1 and 255 ways"
        );
        LruSets {
            set_count,
            ways,
            tags: Vec::new(),
            lens: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Number of sets.
    pub(crate) fn set_count(&self) -> usize {
        self.set_count
    }

    /// Associativity.
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Empties every touched set, keeping the allocations.
    pub(crate) fn reset(&mut self) {
        for &idx in &self.touched {
            self.lens[idx] = 0;
        }
        self.touched.clear();
    }

    /// Looks `tag` up in set `idx`; returns `true` on hit. A hit moves the
    /// tag to the MRU end; a miss inserts it there, evicting the LRU tag
    /// of a full set.
    pub(crate) fn access(&mut self, idx: usize, tag: u64) -> bool {
        if self.lens.is_empty() {
            self.tags = vec![0; self.set_count * self.ways];
            self.lens = vec![0; self.set_count];
        }
        let len = usize::from(self.lens[idx]);
        let start = idx * self.ways;
        let set = &mut self.tags[start..start + self.ways];
        if let Some(pos) = set[..len].iter().position(|&t| t == tag) {
            set[pos..len].rotate_left(1);
            return true;
        }
        if len == 0 {
            self.touched.push(idx);
        }
        if len == self.ways {
            set.rotate_left(1);
            set[len - 1] = tag;
        } else {
            set[len] = tag;
            self.lens[idx] += 1;
        }
        false
    }
}

/// The `Vec<Vec<u64>>` set logic the i-cache and BTB used before the flat
/// layout, kept as the reference model for differential tests.
#[cfg(test)]
pub(crate) mod reference {
    use crate::hash::splitmix64;

    /// One `Vec` per set, LRU first; `remove` + `push` on every update.
    pub(crate) struct VecSets {
        sets: Vec<Vec<u64>>,
        ways: usize,
    }

    impl VecSets {
        pub(crate) fn new(set_count: usize, ways: usize) -> Self {
            VecSets {
                sets: vec![Vec::with_capacity(ways); set_count],
                ways,
            }
        }

        pub(crate) fn reset(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
        }

        pub(crate) fn access(&mut self, idx: usize, tag: u64) -> bool {
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                let t = set.remove(pos);
                set.push(t);
                true
            } else {
                if set.len() == self.ways {
                    set.remove(0);
                }
                set.push(tag);
                false
            }
        }
    }

    /// One step of a differential stream.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Op {
        Access(u64),
        Reset,
    }

    /// A seeded splitmix stream of `len` operations over clustered
    /// addresses: a few hot sets, each hit by `ways + 2` aliasing blocks
    /// `stride` bytes apart, so sets fill, evict and re-hit. `unit` is the
    /// byte distance between adjacent sets; offsets below `jitter` vary
    /// the address within one tag. About one step in 97 is a reset.
    pub(crate) fn clustered_stream(
        seed: u64,
        len: usize,
        set_count: usize,
        ways: usize,
        unit: u64,
        jitter: u64,
    ) -> Vec<Op> {
        let stride = set_count as u64 * unit;
        let hot_sets = set_count.min(3) as u64;
        let aliases = ways as u64 + 2;
        (0..len as u64)
            .map(|i| {
                let r = splitmix64(seed ^ splitmix64(i));
                if r.is_multiple_of(97) {
                    return Op::Reset;
                }
                let set = (r >> 8) % hot_sets;
                let alias = (r >> 16) % aliases;
                let offset = (r >> 24) % jitter;
                Op::Access(0x0804_8000 + alias * stride + set * unit + offset)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_on_first_access_only() {
        let mut s = LruSets::new(512, 2);
        assert!(s.tags.is_empty() && s.lens.is_empty());
        s.reset();
        assert!(s.tags.is_empty(), "reset must not allocate");
        assert!(!s.access(7, 42));
        assert_eq!((s.tags.len(), s.lens.len()), (1024, 512));
        assert!(s.access(7, 42));
    }

    #[test]
    fn reset_clears_only_touched_sets() {
        let mut s = LruSets::new(4, 2);
        s.access(1, 10);
        s.access(1, 11);
        s.access(3, 12);
        s.reset();
        assert_eq!(s.lens, vec![0; 4]);
        assert!(s.touched.is_empty());
        assert!(!s.access(1, 10), "cold after reset");
    }

    #[test]
    #[should_panic(expected = "between 1 and 255")]
    fn too_many_ways_rejected() {
        let _ = LruSets::new(1, 256);
    }
}
