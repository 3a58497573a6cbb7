//! The data patterns of Table 1: colstripe, checkered, rowstripe,
//! their complements, and random — written to the victim row and the
//! eight physically-adjacent rows on each side.

use crate::geometry::RowAddr;
use crate::row::RowView;
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
        FillWords::of(self, row, distance).bytes(row_bytes)
    }

    /// Word `k` of [`row_fill`](Self::row_fill): its bytes `8k..8k + 8`
    /// as a little-endian `u64`, in O(1) for every pattern.
    pub fn fill_word(self, row: RowAddr, distance: i64, k: u32) -> u64 {
        FillWords::of(self, row, distance).word(k)
    }

    /// The bit stored by this pattern at (`row` at `distance`,
    /// byte `byte`, bit `bit`): `true` = 1.
    pub fn bit_at(self, row: RowAddr, distance: i64, byte: usize, bit: u8) -> bool {
        let word = self.fill_word(row, distance, (byte / 8) as u32);
        (word >> ((byte % 8) * 8 + usize::from(bit))) & 1 == 1
    }
}

/// The word generator of one row fill: a splatted uniform byte, or the
/// origin of the row's splitmix64 stream. Splitmix64 is counter-based,
/// so word `k` of the random pattern is the mix of `origin + (k + 1) ·
/// γ`, with no walk over the words before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FillWords {
    /// Every byte of the row is the same.
    Uniform(u64),
    /// The per-row pseudo-random stream of [`PatternKind::Random`].
    Random(u64),
}

/// Splitmix64's increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl FillWords {
    pub(crate) fn of(pattern: DataPattern, row: RowAddr, distance: i64) -> Self {
        match pattern.fill_byte(distance) {
            Some(b) => FillWords::Uniform(u64::from_le_bytes([b; 8])),
            None => FillWords::Random(
                pattern
                    .seed
                    .wrapping_mul(GAMMA)
                    .wrapping_add(u64::from(row.0).wrapping_mul(0xBF58_476D_1CE4_E5B9)),
            ),
        }
    }

    /// The fill's first `len` bytes.
    pub(crate) fn bytes(self, len: usize) -> Vec<u8> {
        match self {
            FillWords::Uniform(w) => vec![w as u8; len],
            FillWords::Random(_) => {
                let mut out = Vec::with_capacity(len.next_multiple_of(8));
                for k in 0..len.div_ceil(8) as u32 {
                    out.extend_from_slice(&self.word(k).to_le_bytes());
                }
                out.truncate(len);
                out
            }
        }
    }

    /// Word `k` of the fill (bytes `8k..8k + 8`, little-endian).
    #[inline]
    pub(crate) fn word(self, k: u32) -> u64 {
        match self {
            FillWords::Uniform(w) => w,
            FillWords::Random(origin) => {
                let mut z = origin.wrapping_add((u64::from(k) + 1).wrapping_mul(GAMMA));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        }
    }
}

/// A row written with a data pattern, as its descriptor: the `pattern`,
/// the `row` whose address seeds the random stream, and the signed
/// `distance` from the victim that picks the fill byte. It stands for
/// the bytes `pattern.row_fill(row, distance, row_bytes)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowFill {
    /// The Table-1 pattern.
    pub pattern: DataPattern,
    /// The row passed to [`DataPattern::row_fill`] (usually physical).
    pub row: RowAddr,
    /// Signed distance from the victim row.
    pub distance: i64,
}

impl RowFill {
    /// The fill `pattern.row_fill(row, distance, _)`.
    pub fn new(pattern: DataPattern, row: RowAddr, distance: i64) -> Self {
        Self { pattern, row, distance }
    }

    pub(crate) fn words(self) -> FillWords {
        FillWords::of(self.pattern, self.row, self.distance)
    }

    /// The fill's bytes for a row of `row_bytes`.
    pub fn bytes(self, row_bytes: usize) -> Vec<u8> {
        self.pattern.row_fill(self.row, self.distance, row_bytes)
    }
}

/// Number of bits that differ between a read row and its expected fill.
///
/// This, [`flip_positions`] and the diffs of [`RowView`] are the one
/// row-diff kernel every metric ends in: the rows are compared as
/// little-endian `u64` words, equal words are skipped and only
/// differing words are popcounted. The baseline x86-64 target has no
/// POPCNT instruction, so a byte-wise `(a ^ b).count_ones()` loop costs
/// 8–12 µs per 8 KiB row, against under 1 µs word-wise. Rows of unequal
/// length are compared over the shorter one.
///
/// [`RowView`]: crate::RowView
pub fn count_flips(read: &[u8], expect: &[u8]) -> u64 {
    RowView::bytes(read).count_diff(&RowView::bytes(expect))
}

/// The `(byte, bit)` positions where a read row differs from its
/// expected fill, in ascending order (see [`count_flips`]).
pub fn flip_positions(read: &[u8], expect: &[u8]) -> Vec<(u32, u8)> {
    RowView::bytes(read).diff_positions(&RowView::bytes(expect))
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
            for distance in [-2i64, -1, 0, 1] {
                let fill = p.row_fill(RowAddr(3), distance, 21);
                for (byte, fill_byte) in fill.iter().enumerate() {
                    for bit in 0..8 {
                        assert_eq!(
                            p.bit_at(RowAddr(3), distance, byte, bit),
                            (fill_byte >> bit) & 1 == 1,
                            "{kind:?} d {distance} byte {byte} bit {bit}"
                        );
                    }
                }
            }
        }
    }

    /// The random stream as it was first written: one sequential
    /// splitmix64 walk per row, the reference the counter-based
    /// [`FillWords`] must reproduce byte for byte.
    fn sequential_fill(p: DataPattern, row: RowAddr, distance: i64, row_bytes: usize) -> Vec<u8> {
        if let Some(b) = p.fill_byte(distance) {
            return vec![b; row_bytes];
        }
        let mut state = p
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(row.0).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut out = Vec::new();
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

    #[test]
    fn fill_word_matches_row_fill_for_every_pattern() {
        // 8200 and 13 are not multiples of 8: the last word's bytes past
        // the row are not part of the fill.
        for kind in PatternKind::ALL {
            for seed in [0u64, 9, u64::MAX] {
                for row in [RowAddr(0), RowAddr(3), RowAddr(65_535)] {
                    for distance in -8i64..=8 {
                        let p = DataPattern::new(kind, seed);
                        for row_bytes in [8usize, 13, 8200] {
                            let fill = p.row_fill(row, distance, row_bytes);
                            assert_eq!(fill, sequential_fill(p, row, distance, row_bytes));
                            for (k, chunk) in fill.chunks(8).enumerate() {
                                let word = p.fill_word(row, distance, k as u32).to_le_bytes();
                                let case = format!("{kind:?} seed {seed} {row:?} d {distance}");
                                assert_eq!(chunk, &word[..chunk.len()], "{case} word {k}");
                            }
                        }
                    }
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
