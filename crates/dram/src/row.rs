//! Stored rows and the read-only view of their contents.
//!
//! A row written with a data pattern is kept as its [`RowFill`]
//! descriptor plus the bits that have flipped since, as `(word, mask)`
//! pairs; only a row written with arbitrary bytes, or through the
//! command-path `WR`, holds bytes. [`RowView`] reads either form as
//! 64-bit lanes, so the fault model and the row-diff kernel never need
//! a row's bytes.

use crate::data::{FillWords, RowFill};
use crate::module::BitFlip;

/// A read-only view of one row's contents, as 64-bit little-endian
/// lanes: lane `k` holds bytes `8k..8k + 8`, zero-padded past the end
/// of the row.
///
/// ```
/// use rh_dram::{DataPattern, PatternKind, RowAddr, RowFill, RowView};
///
/// let bytes = [0xFFu8; 16];
/// let view = RowView::bytes(&bytes);
/// assert_eq!(view.word(1), u64::MAX);
/// let fill = RowFill::new(DataPattern::new(PatternKind::Rowstripe, 0), RowAddr(3), 1);
/// assert_eq!(view.count_flips(fill), 0); // rowstripe writes 0xFF at odd distance
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    len: usize,
    repr: Repr<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Repr<'a> {
    Bytes(&'a [u8]),
    Fill { words: FillWords, flips: &'a [(u32, u64)] },
}

impl<'a> RowView<'a> {
    /// A view of a row image.
    pub fn bytes(data: &'a [u8]) -> Self {
        Self { len: data.len(), repr: Repr::Bytes(data) }
    }

    /// A view of `fill` over a row of `len` bytes, without its bytes.
    pub fn fill(fill: RowFill, len: usize) -> Self {
        Self::flipped(fill.words(), len, &[])
    }

    /// A view of a fill over `len` bytes, with the `(word, mask)` bits
    /// in `flips` inverted (sorted by word, no zero mask).
    fn flipped(words: FillWords, len: usize, flips: &'a [(u32, u64)]) -> Self {
        Self { len, repr: Repr::Fill { words, flips } }
    }

    /// Row length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lane `k`: bytes `8k..8k + 8` as a little-endian `u64`. O(1) for
    /// bytes and for a fill with no flips, O(log f) with `f` flipped
    /// lanes.
    ///
    /// # Panics
    ///
    /// Panics if lane `k` starts past the end of a byte-backed row.
    #[inline]
    pub fn word(&self, k: u32) -> u64 {
        match self.repr {
            Repr::Bytes(data) => bytes_word(data, k),
            Repr::Fill { words, flips } => {
                (words.word(k) ^ flip_mask(flips, k)) & tail_mask(self.len, k)
            }
        }
    }

    /// The bit at (`byte`, `bit`): `true` = 1.
    #[inline]
    pub fn bit(&self, byte: u32, bit: u8) -> bool {
        match self.repr {
            Repr::Bytes(data) => (data[byte as usize] >> bit) & 1 == 1,
            Repr::Fill { .. } => {
                (self.word(byte / 8) >> ((byte % 8) * 8 + u32::from(bit))) & 1 == 1
            }
        }
    }

    /// The row's bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        match self.repr {
            Repr::Bytes(data) => data.to_vec(),
            Repr::Fill { words, flips } => {
                let mut out = words.bytes(self.len);
                for &(w, mask) in flips {
                    let lane = &mut out[w as usize * 8..];
                    for (byte, m) in lane.iter_mut().zip(mask.to_le_bytes()) {
                        *byte ^= m;
                    }
                }
                out
            }
        }
    }

    /// Number of bits that differ from `expect`. A row written with a
    /// fill of the same bytes answers from its flipped bits alone.
    pub fn count_flips(&self, expect: RowFill) -> u64 {
        self.count_diff(&RowView::fill(expect, self.len))
    }

    /// The `(byte, bit)` positions that differ from `expect`, in
    /// ascending order.
    pub fn flip_positions(&self, expect: RowFill) -> Vec<(u32, u8)> {
        self.diff_positions(&RowView::fill(expect, self.len))
    }

    pub(crate) fn count_diff(&self, other: &RowView<'_>) -> u64 {
        let mut n = 0u64;
        self.for_each_diff_word(other, |_, diff| n += u64::from(diff.count_ones()));
        n
    }

    pub(crate) fn diff_positions(&self, other: &RowView<'_>) -> Vec<(u32, u8)> {
        let mut out = Vec::new();
        self.for_each_diff_word(other, |word, mut diff| {
            while diff != 0 {
                let pos = diff.trailing_zeros();
                diff &= diff - 1;
                out.push((word * 8 + pos / 8, (pos % 8) as u8));
            }
        });
        out
    }

    /// Calls `f(word, self_word ^ other_word)` for every lane that
    /// differs, in ascending order, over the shorter of the two rows.
    /// A row and a flip-free fill of the same bytes differ exactly in
    /// the row's flipped bits; any other pair is compared lane by lane.
    fn for_each_diff_word(&self, other: &RowView<'_>, mut f: impl FnMut(u32, u64)) {
        if let (Repr::Fill { words: a, flips }, Repr::Fill { words: b, flips: [] }) =
            (self.repr, other.repr)
        {
            // Equal generators write equal bytes: the same uniform
            // byte, or the same random stream.
            if self.len == other.len && a == b {
                flips.iter().for_each(|&(w, mask)| f(w, mask));
                return;
            }
        }
        let len = self.len.min(other.len);
        for k in 0..len.div_ceil(8) as u32 {
            let diff = (self.word(k) ^ other.word(k)) & tail_mask(len, k);
            if diff != 0 {
                f(k, diff);
            }
        }
    }
}

/// Lane `k` of a row image, zero-padded past its end.
#[inline]
fn bytes_word(data: &[u8], k: u32) -> u64 {
    let lane = &data[k as usize * 8..];
    let mut word = [0u8; 8];
    let n = lane.len().min(8);
    word[..n].copy_from_slice(&lane[..n]);
    u64::from_le_bytes(word)
}

/// The bits of lane `k` that lie inside a row of `len` bytes.
#[inline]
fn tail_mask(len: usize, k: u32) -> u64 {
    match len.saturating_sub(k as usize * 8) {
        8.. => u64::MAX,
        bytes => (1 << (bytes * 8)) - 1,
    }
}

/// The flipped bits of lane `k` in a sorted `(word, mask)` list.
#[inline]
fn flip_mask(flips: &[(u32, u64)], k: u32) -> u64 {
    if flips.is_empty() {
        return 0;
    }
    flips.binary_search_by_key(&k, |&(w, _)| w).map_or(0, |i| flips[i].1)
}

/// One stored row: a fill and the bits flipped since it was written,
/// or bytes.
#[derive(Debug, Clone)]
pub(crate) enum StoredRow {
    /// A pattern fill, as its word generator; `flips` holds `(word,
    /// mask)` pairs sorted by word, with no zero mask.
    Fill { words: FillWords, flips: Vec<(u32, u64)> },
    /// Arbitrary bytes.
    Bytes(Box<[u8]>),
}

impl StoredRow {
    /// A freshly written fill.
    pub(crate) fn fill(fill: RowFill) -> Self {
        StoredRow::Fill { words: fill.words(), flips: Vec::new() }
    }

    /// A view of the row, `len` bytes long.
    pub(crate) fn view(&self, len: usize) -> RowView<'_> {
        match self {
            StoredRow::Fill { words, flips } => RowView::flipped(*words, len, flips),
            StoredRow::Bytes(data) => RowView::bytes(data),
        }
    }

    /// Inverts each flipped bit; a bit flipped twice reads as written.
    ///
    /// # Panics
    ///
    /// Panics if a flip lies outside the row.
    pub(crate) fn toggle(&mut self, len: usize, flips: &[BitFlip]) {
        match self {
            StoredRow::Fill { flips: set, .. } => {
                for f in flips {
                    assert!((f.byte as usize) < len, "flip at byte {} outside the row", f.byte);
                    let (w, mask) = (f.byte / 8, 1u64 << ((f.byte % 8) * 8 + u32::from(f.bit)));
                    match set.binary_search_by_key(&w, |&(w, _)| w) {
                        Ok(i) => {
                            set[i].1 ^= mask;
                            if set[i].1 == 0 {
                                set.remove(i);
                            }
                        }
                        Err(i) => set.insert(i, (w, mask)),
                    }
                }
            }
            StoredRow::Bytes(data) => {
                for f in flips {
                    data[f.byte as usize] ^= 1 << f.bit;
                }
            }
        }
    }

    /// The row's bytes, for an in-place write: a fill is turned into
    /// bytes first.
    pub(crate) fn bytes_mut(&mut self, len: usize) -> &mut [u8] {
        if let StoredRow::Fill { .. } = self {
            *self = StoredRow::Bytes(self.view(len).to_vec().into_boxed_slice());
        }
        match self {
            StoredRow::Bytes(data) => data,
            StoredRow::Fill { .. } => unreachable!("a fill was just turned into bytes"),
        }
    }
}
