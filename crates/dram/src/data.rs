//! The data patterns of Table 1: colstripe, checkered, rowstripe,
//! their complements, and random — written to the victim row and the
//! eight physically-adjacent rows on each side.

use crate::geometry::RowAddr;
use serde::{Deserialize, Serialize};

/// One of the seven data patterns used by the paper's characterization
/// (Table 1). Fills depend only on the *physical distance parity* from
/// the victim row: rows at even distance (`V ± [0,2,4,6,8]`) get one
/// byte, rows at odd distance (`V ± [1,3,5,7]`) the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// 0x55 everywhere.
    Colstripe,
    /// 0xAA everywhere (complement of colstripe).
    ColstripeInv,
    /// 0x55 at even distance, 0xAA at odd distance.
    Checkered,
    /// 0xAA at even distance, 0x55 at odd distance.
    CheckeredInv,
    /// 0x00 at even distance, 0xFF at odd distance.
    Rowstripe,
    /// 0xFF at even distance, 0x00 at odd distance.
    RowstripeInv,
    /// Per-row pseudo-random bytes derived from a seed.
    Random,
}

impl PatternKind {
    /// All seven patterns, in Table 1 order.
    pub const ALL: [PatternKind; 7] = [
        PatternKind::Colstripe,
        PatternKind::ColstripeInv,
        PatternKind::Checkered,
        PatternKind::CheckeredInv,
        PatternKind::Rowstripe,
        PatternKind::RowstripeInv,
        PatternKind::Random,
    ];

    /// Table-1 name of the pattern.
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::Colstripe => "colstripe",
            PatternKind::ColstripeInv => "~colstripe",
            PatternKind::Checkered => "checkered",
            PatternKind::CheckeredInv => "~checkered",
            PatternKind::Rowstripe => "rowstripe",
            PatternKind::RowstripeInv => "~rowstripe",
            PatternKind::Random => "random",
        }
    }
}

/// A concrete data pattern: a [`PatternKind`] plus the seed used by the
/// random pattern.
///
/// ```
/// use rh_dram::{DataPattern, PatternKind};
///
/// let p = DataPattern::new(PatternKind::Rowstripe, 0);
/// assert_eq!(p.fill_byte(0), Some(0x00)); // victim row
/// assert_eq!(p.fill_byte(1), Some(0xFF)); // adjacent rows
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataPattern {
    /// Which Table-1 pattern.
    pub kind: PatternKind,
    /// Seed for the random pattern (ignored by the deterministic ones).
    pub seed: u64,
}

impl DataPattern {
    /// Creates a pattern.
    pub fn new(kind: PatternKind, seed: u64) -> Self {
        Self { kind, seed }
    }

    /// The uniform fill byte of a row at signed `distance` from the
    /// victim, or `None` for the random pattern (which is not uniform).
    pub fn fill_byte(self, distance: i64) -> Option<u8> {
        let even = distance.rem_euclid(2) == 0;
        match self.kind {
            PatternKind::Colstripe => Some(0x55),
            PatternKind::ColstripeInv => Some(0xAA),
            PatternKind::Checkered => Some(if even { 0x55 } else { 0xAA }),
            PatternKind::CheckeredInv => Some(if even { 0xAA } else { 0x55 }),
            PatternKind::Rowstripe => Some(if even { 0x00 } else { 0xFF }),
            PatternKind::RowstripeInv => Some(if even { 0xFF } else { 0x00 }),
            PatternKind::Random => None,
        }
    }

    /// Produces the full row fill for the physical row `row` at signed
    /// `distance` from the victim row.
    pub fn row_fill(self, row: RowAddr, distance: i64, row_bytes: usize) -> Vec<u8> {
        match self.fill_byte(distance) {
            Some(b) => vec![b; row_bytes],
            None => {
                // Deterministic per-row pseudo-random stream (splitmix64).
                let mut state = self
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(row.0).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                let mut out = Vec::with_capacity(row_bytes);
                while out.len() < row_bytes {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    out.extend_from_slice(&z.to_le_bytes());
                }
                out.truncate(row_bytes);
                out
            }
        }
    }

    /// The bit stored by this pattern at (`row` at `distance`,
    /// byte `byte`, bit `bit`): `true` = 1.
    pub fn bit_at(self, row: RowAddr, distance: i64, byte: usize, bit: u8) -> bool {
        match self.fill_byte(distance) {
            Some(b) => (b >> bit) & 1 == 1,
            None => {
                let fill = self.row_fill(row, distance, byte + 1);
                (fill[byte] >> bit) & 1 == 1
            }
        }
    }
}

/// Number of bits that differ between a read row and its expected fill.
///
/// This and [`flip_positions`] are the one row-diff kernel every
/// metric ends in: the rows are compared as little-endian `u64` words,
/// equal words are skipped and only differing words are popcounted. The
/// baseline x86-64 target has no POPCNT instruction, so a byte-wise
/// `(a ^ b).count_ones()` loop costs 8–12 µs per 8 KiB row, against
/// under 1 µs word-wise. Rows of unequal length are compared over the
/// shorter one.
pub fn count_flips(read: &[u8], expect: &[u8]) -> u64 {
    let mut n = 0u64;
    for_each_diff_word(read, expect, |_, diff| n += u64::from(diff.count_ones()));
    n
}

/// The `(byte, bit)` positions where a read row differs from its
/// expected fill, in ascending order (see [`count_flips`]).
pub fn flip_positions(read: &[u8], expect: &[u8]) -> Vec<(u32, u8)> {
    let mut out = Vec::new();
    for_each_diff_word(read, expect, |offset, mut diff| {
        while diff != 0 {
            let pos = diff.trailing_zeros();
            diff &= diff - 1;
            out.push((offset + pos / 8, (pos % 8) as u8));
        }
    });
    out
}

/// Calls `f(byte_offset, read_word ^ expect_word)` for every 64-bit
/// little-endian word that differs, in ascending order. A trailing
/// partial word is zero-padded.
fn for_each_diff_word(read: &[u8], expect: &[u8], mut f: impl FnMut(u32, u64)) {
    let len = read.len().min(expect.len());
    let (read_words, read_tail) = read[..len].as_chunks::<8>();
    let (expect_words, expect_tail) = expect[..len].as_chunks::<8>();
    let mut offset = 0u32;
    for (a, b) in read_words.iter().zip(expect_words) {
        let diff = u64::from_le_bytes(*a) ^ u64::from_le_bytes(*b);
        if diff != 0 {
            f(offset, diff);
        }
        offset += 8;
    }
    let diff = tail_word(read_tail) ^ tail_word(expect_tail);
    if diff != 0 {
        f(offset, diff);
    }
}

/// A partial word (under 8 bytes), zero-padded, little-endian.
fn tail_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_bytes() {
        let s = 7;
        assert_eq!(DataPattern::new(PatternKind::Colstripe, s).fill_byte(3), Some(0x55));
        assert_eq!(DataPattern::new(PatternKind::Checkered, s).fill_byte(0), Some(0x55));
        assert_eq!(DataPattern::new(PatternKind::Checkered, s).fill_byte(-1), Some(0xAA));
        assert_eq!(DataPattern::new(PatternKind::Rowstripe, s).fill_byte(2), Some(0x00));
        assert_eq!(DataPattern::new(PatternKind::Rowstripe, s).fill_byte(-3), Some(0xFF));
    }

    #[test]
    fn complements_are_complementary() {
        for d in -8i64..=8 {
            let c = DataPattern::new(PatternKind::Checkered, 0).fill_byte(d).unwrap();
            let i = DataPattern::new(PatternKind::CheckeredInv, 0).fill_byte(d).unwrap();
            assert_eq!(c ^ i, 0xFF);
        }
    }

    #[test]
    fn negative_distance_parity() {
        // rem_euclid keeps -2 even and -1 odd.
        let p = DataPattern::new(PatternKind::Rowstripe, 0);
        assert_eq!(p.fill_byte(-2), p.fill_byte(2));
        assert_eq!(p.fill_byte(-1), p.fill_byte(1));
    }

    #[test]
    fn random_is_deterministic_and_row_dependent() {
        let p = DataPattern::new(PatternKind::Random, 42);
        let a = p.row_fill(RowAddr(10), 0, 64);
        let b = p.row_fill(RowAddr(10), 0, 64);
        let c = p.row_fill(RowAddr(11), 0, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn random_differs_across_seeds() {
        let a = DataPattern::new(PatternKind::Random, 1).row_fill(RowAddr(5), 0, 32);
        let b = DataPattern::new(PatternKind::Random, 2).row_fill(RowAddr(5), 0, 32);
        assert_ne!(a, b);
    }

    #[test]
    fn bit_at_matches_row_fill() {
        for kind in PatternKind::ALL {
            let p = DataPattern::new(kind, 9);
            let fill = p.row_fill(RowAddr(3), 1, 16);
            for (byte, fill_byte) in fill.iter().enumerate() {
                for bit in 0..8 {
                    assert_eq!(
                        p.bit_at(RowAddr(3), 1, byte, bit),
                        (fill_byte >> bit) & 1 == 1,
                        "{kind:?} byte {byte} bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_has_seven_patterns_with_unique_names() {
        let names: std::collections::HashSet<_> =
            PatternKind::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 7);
    }
}
