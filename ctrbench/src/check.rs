//! Correctness checkers: a record-sequence digest (compared against the
//! fresh-boot oracle's) and an exact byte comparison (bodies served by
//! countd against the local encoding). Both run outside the timed
//! phase.

use std::hash::{Hash, Hasher};

use counterlab::measure::Record;

/// A deterministic 64-bit hasher (FNV-1a over the bytes `Hash` feeds it,
/// finished through splitmix64). Unlike `DefaultHasher` its output is
/// fixed by this file alone.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Digest {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        counterlab::cpu::hash::splitmix64(self.0)
    }
}

/// Digest of a record sequence: every field of every record, in order.
pub fn digest_records<'a>(records: impl IntoIterator<Item = &'a Record>) -> u64 {
    let mut h = Digest::default();
    let mut n = 0u64;
    for r in records {
        r.config.hash(&mut h);
        r.benchmark.hash(&mut h);
        r.measured.hash(&mut h);
        r.expected.hash(&mut h);
        n += 1;
    }
    n.hash(&mut h);
    h.finish()
}

/// Offset of the first byte where `got` differs from `expected`
/// (a length difference counts at the shorter length), or `None` when
/// they are identical.
pub fn first_difference(expected: &[u8], got: &[u8]) -> Option<usize> {
    expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .or_else(|| (expected.len() != got.len()).then(|| expected.len().min(got.len())))
}
