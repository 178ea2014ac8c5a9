//! Instruction-cache and instruction-TLB models.
//!
//! Together with [`crate::branch`], these provide the placement-sensitive
//! micro-architectural structures that §6 of the paper holds responsible
//! for cycle-count perturbation.

use crate::lru_sets::LruSets;

/// A set-associative instruction cache with LRU replacement.
///
/// The lines live in one flat `sets × ways` tag array with a per-set
/// occupancy count, each set's valid lines ordered least to most recently
/// used. The array is allocated on the first [`ICache::access`], not in
/// [`ICache::new`]: booting a machine that never fetches a loop costs no
/// front-end storage.
///
/// # Examples
///
/// ```
/// use counterlab_cpu::icache::ICache;
///
/// let mut ic = ICache::new(32 * 1024, 64, 8);
/// assert!(!ic.access(0x8048000)); // cold miss
/// assert!(ic.access(0x8048000)); // hit
/// assert!(ic.access(0x8048004)); // same line
/// ```
#[derive(Debug, Clone)]
pub struct ICache {
    line_bytes: u64,
    sets: LruSets,
}

impl ICache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines and `ways`
    /// associativity. Allocates nothing until the first access.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry divides evenly, the set count is a
    /// power of two and `1 <= ways <= 255`.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = size_bytes / line_bytes;
        let sets = (lines as usize) / ways;
        assert!(
            sets >= 1 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        ICache {
            line_bytes,
            sets: LruSets::new(sets, ways),
        }
    }

    /// Empties every set, returning the cache to its cold post-boot state
    /// while keeping all allocations (the reuse path of measurement
    /// sessions). Clears only the sets a run touched, so it is equivalent
    /// to, but much cheaper than, rebuilding with [`ICache::new`].
    pub fn reset(&mut self) {
        self.sets.reset();
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.set_count()
    }

    /// Accesses the byte at `addr`; returns `true` on hit. Misses fill the
    /// line (LRU within the set).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let idx = (line as usize) & (self.sets.set_count() - 1);
        self.sets.access(idx, line)
    }

    /// Accesses a code block of `bytes` starting at `addr`; returns the
    /// number of missing lines (i.e. cold-fetch misses).
    pub fn access_block(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let first = addr / self.line_bytes;
        let last = (addr + bytes - 1) / self.line_bytes;
        let mut misses = 0;
        for line in first..=last {
            if !self.access(line * self.line_bytes) {
                misses += 1;
            }
        }
        misses
    }

    /// Number of lines a block of `bytes` at `addr` occupies.
    pub fn lines_spanned(&self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        (addr + bytes - 1) / self.line_bytes - addr / self.line_bytes + 1
    }
}

/// A fully-associative instruction TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct ITlb {
    page_bytes: u64,
    entries: Vec<u64>,
    capacity: usize,
}

impl ITlb {
    /// Creates an i-TLB with `capacity` entries for `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_bytes` is not a power of two.
    pub fn new(capacity: usize, page_bytes: u64) -> Self {
        assert!(capacity >= 1, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        ITlb {
            page_bytes,
            entries: Vec::new(),
            capacity,
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Translates the address of one fetch; returns `true` on TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr / self.page_bytes;
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            let p = self.entries.remove(pos);
            self.entries.push(p);
            true
        } else {
            if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push(page);
            false
        }
    }

    /// Flushes all translations (context switch with address-space change).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Returns the TLB to its cold post-boot state (alias of
    /// [`ITlb::flush`], named for symmetry with the other front-end
    /// structures' reset path).
    pub fn reset(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru_sets::reference::{clustered_stream, Op, VecSets};

    #[test]
    fn flat_icache_matches_vec_reference() {
        // (size bytes, ways) of 64-byte-line caches: Core 2, K8 and
        // Pentium D as shipped, then one set, one way, and one of each.
        let geometries = [
            (32 * 1024, 8),
            (64 * 1024, 2),
            (16 * 1024, 4),
            (4 * 64, 4),
            (8 * 64, 1),
            (64, 1),
        ];
        for (size, ways) in geometries {
            for seed in 1..=3 {
                let mut flat = ICache::new(size, 64, ways);
                let sets = flat.set_count();
                let mut model = VecSets::new(sets, ways);
                let (mut hits, mut misses) = (0, 0);
                for (step, op) in clustered_stream(seed, 2000, sets, ways, 64, 64)
                    .into_iter()
                    .enumerate()
                {
                    match op {
                        Op::Reset => {
                            flat.reset();
                            model.reset();
                        }
                        Op::Access(addr) => {
                            let line = addr / 64;
                            let want = model.access(line as usize & (sets - 1), line);
                            assert_eq!(
                                flat.access(addr),
                                want,
                                "{size}B/{ways}-way, seed {seed}, step {step}, addr {addr:#x}"
                            );
                            if want {
                                hits += 1;
                            } else {
                                misses += 1;
                            }
                        }
                    }
                }
                assert!(
                    hits > 200 && misses > 200,
                    "stream must both hit and miss: {hits}/{misses}"
                );
            }
        }
    }

    #[test]
    fn same_line_one_miss() {
        let mut ic = ICache::new(1024, 64, 2);
        assert!(!ic.access(0));
        assert!(ic.access(63));
        assert!(!ic.access(64));
    }

    #[test]
    fn block_access_counts_lines() {
        let mut ic = ICache::new(1024, 64, 2);
        // 100 bytes at offset 60 spans lines 0 and 1 and part of line 2.
        assert_eq!(ic.lines_spanned(60, 100), 3);
        assert_eq!(ic.access_block(60, 100), 3);
        assert_eq!(ic.access_block(60, 100), 0, "second pass all hits");
    }

    #[test]
    fn zero_byte_block() {
        let mut ic = ICache::new(1024, 64, 2);
        assert_eq!(ic.access_block(0, 0), 0);
        assert_eq!(ic.lines_spanned(0, 0), 0);
    }

    #[test]
    fn conflict_eviction() {
        // 2 sets × 1 way × 64B lines = 128B cache: lines 0 and 2 collide.
        let mut ic = ICache::new(128, 64, 1);
        ic.access(0);
        ic.access(2 * 64);
        assert!(!ic.access(0), "line 0 must have been evicted");
    }

    #[test]
    fn associativity_keeps_both() {
        // 1 set × 2 ways.
        let mut ic = ICache::new(128, 64, 2);
        ic.access(0);
        ic.access(64);
        assert!(ic.access(0));
        assert!(ic.access(64));
    }

    #[test]
    fn tlb_hit_after_fill() {
        let mut tlb = ITlb::new(4, 4096);
        assert!(!tlb.access(0x8048_1234));
        assert!(tlb.access(0x8048_1ff0), "same page");
        assert!(!tlb.access(0x9000_0000), "different page");
    }

    #[test]
    fn tlb_lru_eviction() {
        let mut tlb = ITlb::new(2, 4096);
        tlb.access(0x0000); // page 0
        tlb.access(0x1000); // page 1
        tlb.access(0x0000); // refresh page 0
        tlb.access(0x2000); // evicts page 1
        assert!(tlb.access(0x0000));
        assert!(!tlb.access(0x1000));
    }

    #[test]
    fn tlb_flush() {
        let mut tlb = ITlb::new(4, 4096);
        tlb.access(0);
        tlb.flush();
        assert!(!tlb.access(0));
    }
}
