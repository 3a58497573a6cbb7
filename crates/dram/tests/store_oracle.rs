//! The row store against a byte-backed reference.
//!
//! `DramModule` keeps a row written with a data pattern as its fill
//! descriptor plus the bits flipped since. This oracle replays random
//! sequences of writes, command-path beats, scripted flips, reads and
//! flip counts against a plain `HashMap<(bank, row), Vec<u8>>` and
//! requires the two to agree after every operation: the bytes read and
//! peeked, the lanes the fault model sees, flip counts and positions,
//! and `rows_stored`.

use proptest::prelude::*;
use rh_dram::{
    BankId, BitFlip, Command, DataPattern, DisturbanceModel, DramError, DramGeometry, DramModule,
    Manufacturer, ModuleConfig, PatternKind, Picos, RowAddr, RowFill, RowView, TimedCommand,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Columns per row: 16 × 8 = 128-byte rows, so scripted flips land in
/// the same 64-bit lane often.
const COLUMNS: u32 = 16;
const ROW_BYTES: usize = COLUMNS as usize * 8;
const BANKS: u32 = 2;
/// Logical rows the ops touch: few, so ops on one row pile up.
const ROWS: u32 = 6;

/// What the model and the test share.
#[derive(Default)]
struct Script {
    /// Flips to return from the next sensing (taken by it).
    next: Vec<BitFlip>,
    /// Every sensing: bank, physical row, and the lanes and bits of the
    /// row the model was shown.
    seen: Vec<(u32, u32, Vec<u64>, Vec<bool>)>,
}

/// Returns the scripted flips at each sensing and records what it saw.
struct Scripted(Arc<Mutex<Script>>);

impl DisturbanceModel for Scripted {
    fn on_hammer(&mut self, _: BankId, _: RowAddr, _: u64, _: Picos, _: Picos) {}

    fn flips_on_activate(
        &mut self,
        bank: BankId,
        row: RowAddr,
        data: &RowView<'_>,
        _: Picos,
    ) -> Vec<BitFlip> {
        let mut script = self.0.lock().unwrap();
        let flips = std::mem::take(&mut script.next);
        let lanes = (0..data.len().div_ceil(8) as u32).map(|k| data.word(k)).collect();
        let bits = flips.iter().map(|f| data.bit(f.byte, f.bit)).collect();
        script.seen.push((bank.0, row.0, lanes, bits));
        flips
    }

    fn on_restore(&mut self, _: BankId, _: RowAddr, _: Picos) {}

    fn set_temperature(&mut self, _: f64) {}

    fn temperature(&self) -> f64 {
        0.0
    }
}

/// The reference: each stored row's bytes, and the fill it was last
/// written with while no beat has overwritten it.
#[derive(Default)]
struct Reference {
    rows: HashMap<(u32, u32), (Vec<u8>, Option<RowFill>)>,
}

/// A small deterministic stream over one `u64` per op.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn fill(&mut self) -> RowFill {
        let kind = PatternKind::ALL[self.below(7) as usize];
        let pattern = DataPattern::new(kind, self.below(3));
        RowFill::new(pattern, RowAddr(self.below(4) as u32), self.below(17) as i64 - 8)
    }
}

fn bytewise_count(read: &[u8], expect: &[u8]) -> u64 {
    read.iter().zip(expect).map(|(a, b)| u64::from((a ^ b).count_ones())).sum()
}

fn bytewise_positions(read: &[u8], expect: &[u8]) -> Vec<(u32, u8)> {
    let mut out = Vec::new();
    for (i, (a, b)) in read.iter().zip(expect).enumerate() {
        for bit in 0..8u8 {
            if (a ^ b) >> bit & 1 == 1 {
                out.push((i as u32, bit));
            }
        }
    }
    out
}

fn lanes(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        })
        .collect()
}

fn config() -> ModuleConfig {
    let mut cfg = ModuleConfig::ddr4(Manufacturer::A);
    cfg.geometry = DramGeometry { banks: BANKS, columns: COLUMNS, ..cfg.geometry };
    // The beats are issued 1 ns apart; the oracle is about data.
    cfg.enforce_timings = false;
    cfg
}

/// Runs one op sequence; `Err` names the first disagreement.
fn run(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let script = Arc::new(Mutex::new(Script::default()));
    let cfg = config();
    let mut m = DramModule::with_model(cfg, Box::new(Scripted(Arc::clone(&script))));
    let mut reference = Reference::default();
    // Positions flipped so far, so later scripts can flip them back.
    let mut flipped: Vec<BitFlip> = Vec::new();
    let mut at: Picos = 0;
    for (step, &(op, seed)) in ops.iter().enumerate() {
        let mut draw = Draw(seed);
        let bank = BankId(draw.below(u64::from(BANKS)) as u32);
        let row = RowAddr(draw.below(u64::from(ROWS)) as u32);
        let phys = cfg.mapping.logical_to_physical(row);
        let key = (bank.0, phys.0);
        // Script the flips of this op's sensing, if it has one: fresh
        // positions, some repeated from earlier ops (a flip and its
        // reversal), some twice in one script.
        let mut next = Vec::new();
        for _ in 0..draw.below(4) {
            let f = match (draw.below(3), flipped.is_empty()) {
                (0, false) => flipped[draw.below(flipped.len() as u64) as usize],
                _ => {
                    BitFlip { byte: draw.below(ROW_BYTES as u64) as u32, bit: draw.below(8) as u8 }
                }
            };
            next.push(f);
            if draw.below(8) == 0 {
                next.push(f);
            }
        }
        flipped.extend(&next);
        script.lock().unwrap().next.clone_from(&next);
        let seen_before = script.lock().unwrap().seen.len();
        // Every sensing op senses before it changes anything.
        let before = reference.rows.get(&key).map(|r| r.0.clone());
        // Whether this op senses `key` (and so applies `next`).
        let mut senses = false;
        let case =
            format!("step {step}: op {op} on bank {} row {} (phys {})", bank.0, row.0, phys.0);
        match op % 10 {
            0 | 1 => {
                let fill = draw.fill();
                m.write_row_fill(bank, row, fill).unwrap();
                reference.rows.insert(key, (fill.bytes(ROW_BYTES), Some(fill)));
            }
            2 => {
                let data: Vec<u8> = match draw.below(2) {
                    0 => vec![draw.next() as u8; ROW_BYTES],
                    _ => (0..ROW_BYTES).map(|_| draw.next() as u8).collect(),
                };
                m.write_row_direct(bank, row, &data).unwrap();
                reference.rows.insert(key, (data, None));
            }
            3 => {
                // ACT, a few WR and RD beats, PRE.
                at += 1_000;
                m.issue(&TimedCommand { at, cmd: Command::Act { bank, row } }).unwrap();
                senses = true;
                apply(&mut reference, key, &next);
                for _ in 0..1 + draw.below(4) {
                    at += 1_000;
                    let column = draw.below(u64::from(COLUMNS)) as u32;
                    let off = column as usize * 8;
                    if draw.below(2) == 0 {
                        let beat = draw.next().to_le_bytes();
                        let cmd = Command::Wr { bank, column, data: beat };
                        m.issue(&TimedCommand { at, cmd }).unwrap();
                        let stored =
                            reference.rows.entry(key).or_insert_with(|| (vec![0; ROW_BYTES], None));
                        stored.0[off..off + 8].copy_from_slice(&beat);
                        stored.1 = None;
                    } else {
                        let cmd = Command::Rd { bank, column };
                        let got = m.issue(&TimedCommand { at, cmd });
                        match reference.rows.get(&key) {
                            Some((bytes, _)) => {
                                prop_assert_eq!(
                                    got.unwrap().unwrap().to_vec(),
                                    bytes[off..off + 8].to_vec(),
                                    "{}",
                                    case
                                )
                            }
                            None => prop_assert!(
                                matches!(got, Err(DramError::UninitializedRow { .. })),
                                "{}",
                                case
                            ),
                        }
                    }
                }
                at += 1_000;
                m.issue(&TimedCommand { at, cmd: Command::Pre { bank } }).unwrap();
            }
            4 => {
                let got = m.read_row_direct(bank, row);
                senses = true;
                apply(&mut reference, key, &next);
                match reference.rows.get(&key) {
                    Some((bytes, _)) => prop_assert_eq!(&got.unwrap(), bytes, "{}", case),
                    None => prop_assert!(got.is_err(), "{}", case),
                }
            }
            5 | 6 => {
                // Flip counts and positions against the written fill (if
                // any) and against another one.
                let other = draw.fill();
                let got = m.read_row_view(bank, row).map(|view| {
                    let matching = reference.rows.get(&key).and_then(|r| r.1).unwrap_or(other);
                    [matching, other].map(|fill| {
                        (fill, view.count_flips(fill), view.flip_positions(fill), view.to_vec())
                    })
                });
                senses = true;
                apply(&mut reference, key, &next);
                match reference.rows.get(&key) {
                    Some((bytes, _)) => {
                        for (fill, count, positions, read) in got.unwrap() {
                            let expect = fill.bytes(ROW_BYTES);
                            prop_assert_eq!(&read, bytes, "{}", case);
                            prop_assert_eq!(
                                count,
                                bytewise_count(bytes, &expect),
                                "{} vs {:?}",
                                case,
                                fill
                            );
                            prop_assert_eq!(
                                positions,
                                bytewise_positions(bytes, &expect),
                                "{} vs {:?}",
                                case,
                                fill
                            );
                        }
                    }
                    None => prop_assert!(got.is_err(), "{}", case),
                }
            }
            7 => {
                // A hammer senses its aggressor; a refresh senses its
                // physical row.
                if draw.below(2) == 0 {
                    m.hammer_direct(bank, row, 1, 1_000, 1_000).unwrap();
                } else {
                    m.refresh_row_physical(bank, phys).unwrap();
                }
                senses = true;
                apply(&mut reference, key, &next);
            }
            8 => {
                let got = m.restore_row_direct(bank, row);
                prop_assert_eq!(got.is_ok(), reference.rows.contains_key(&key), "{}", case);
            }
            _ => {
                if draw.below(4) == 0 {
                    m.clear_storage();
                    reference.rows.clear();
                }
            }
        }
        at = at.max(m.now());
        // The model saw the stored row as it stood before the op, on
        // exactly the sensings of a stored row.
        let mut script = script.lock().unwrap();
        let seen: Vec<_> = script.seen.drain(seen_before..).collect();
        script.next.clear();
        prop_assert_eq!(seen.len(), usize::from(senses && before.is_some()), "{}", case);
        if let (Some((b, r, seen_lanes, seen_bits)), Some(before)) = (seen.first(), &before) {
            prop_assert_eq!((*b, *r), key, "{}", case);
            prop_assert_eq!(seen_lanes, &lanes(before), "{}", case);
            let bits: Vec<bool> =
                next.iter().map(|f| before[f.byte as usize] >> f.bit & 1 == 1).collect();
            prop_assert_eq!(seen_bits, &bits, "{}", case);
        }
        // Every stored row peeks as the reference holds it.
        prop_assert_eq!(m.rows_stored(), reference.rows.len(), "{}", case);
        for b in 0..BANKS {
            for r in 0..ROWS {
                let phys = cfg.mapping.logical_to_physical(RowAddr(r));
                let peek = m.peek_row(BankId(b), RowAddr(r)).ok();
                let want = reference.rows.get(&(b, phys.0)).map(|s| s.0.clone());
                prop_assert_eq!(peek, want, "{} peek bank {} row {}", case, b, r);
            }
        }
    }
    Ok(())
}

/// Applies scripted flips to the reference row, if it is stored.
fn apply(reference: &mut Reference, key: (u32, u32), flips: &[BitFlip]) {
    if let Some((bytes, _)) = reference.rows.get_mut(&key) {
        for f in flips {
            bytes[f.byte as usize] ^= 1 << f.bit;
        }
    }
}

proptest! {
    #[test]
    fn store_matches_byte_reference(
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..80),
    ) {
        run(&ops)?;
    }
}

#[test]
fn a_flip_and_its_reversal_leave_the_fill() {
    let script = Arc::new(Mutex::new(Script::default()));
    let mut m = DramModule::with_model(config(), Box::new(Scripted(Arc::clone(&script))));
    let (bank, row) = (BankId(1), RowAddr(3));
    let fill = RowFill::new(DataPattern::new(PatternKind::Random, 5), RowAddr(3), 0);
    m.write_row_fill(bank, row, fill).unwrap();
    let flip = BitFlip { byte: 9, bit: 4 };
    script.lock().unwrap().next = vec![flip, BitFlip { byte: 10, bit: 0 }];
    let view = m.read_row_view(bank, row).unwrap();
    assert_eq!(view.count_flips(fill), 2);
    assert_eq!(view.flip_positions(fill), vec![(9, 4), (10, 0)]);
    script.lock().unwrap().next = vec![flip];
    assert_eq!(m.read_row_view(bank, row).unwrap().flip_positions(fill), vec![(10, 0)]);
    script.lock().unwrap().next = vec![BitFlip { byte: 10, bit: 0 }];
    assert_eq!(m.read_row_view(bank, row).unwrap().count_flips(fill), 0);
    assert_eq!(m.peek_row(bank, row).unwrap(), fill.bytes(ROW_BYTES));
}
