//! Property-based tests for the DRAM device model.

use proptest::prelude::*;
use rh_dram::{
    count_flips, flip_positions, BankId, BitFlip, Command, DataPattern, DisturbanceModel,
    DramModule, Manufacturer, ModuleConfig, PatternKind, Picos, RowAddr, RowMapping, RowView,
    TimedCommand,
};
use std::sync::{Arc, Mutex};

/// One `on_hammer` call: row, count, on-time, off-time.
type Hammer = (RowAddr, u64, Picos, Picos);

/// Logs every `on_hammer` call; flips nothing.
struct HammerLog(Arc<Mutex<Vec<Hammer>>>);

impl DisturbanceModel for HammerLog {
    fn on_hammer(&mut self, _: BankId, row: RowAddr, count: u64, t_on: Picos, t_off: Picos) {
        self.0.lock().unwrap().push((row, count, t_on, t_off));
    }

    fn flips_on_activate(
        &mut self,
        _: BankId,
        _: RowAddr,
        _: &RowView<'_>,
        _: Picos,
    ) -> Vec<BitFlip> {
        Vec::new()
    }

    fn on_restore(&mut self, _: BankId, _: RowAddr, _: Picos) {}

    fn set_temperature(&mut self, _: f64) {}

    fn temperature(&self) -> f64 {
        0.0
    }
}

fn any_mfr() -> impl Strategy<Value = Manufacturer> {
    prop::sample::select(Manufacturer::ALL.to_vec())
}

fn any_pattern() -> impl Strategy<Value = PatternKind> {
    prop::sample::select(PatternKind::ALL.to_vec())
}

/// The byte-wise reference the row-diff kernel must agree with.
fn bytewise_count(read: &[u8], expect: &[u8]) -> u64 {
    read.iter().zip(expect).map(|(a, b)| u64::from((a ^ b).count_ones())).sum()
}

/// Byte-then-bit scan of the differing positions.
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

/// Seeded pseudo-random row of `len` bytes (splitmix64).
fn random_row(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

fn assert_kernel_matches(read: &[u8], expect: &[u8]) {
    let len = read.len();
    assert_eq!(count_flips(read, expect), bytewise_count(read, expect), "len {len}");
    assert_eq!(flip_positions(read, expect), bytewise_positions(read, expect), "len {len}");
}

#[test]
fn row_diff_kernel_edge_rows() {
    for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 8191, 8192, 8193, 8200] {
        let expect = random_row(len as u64, len);
        // Equal rows.
        assert_kernel_matches(&expect, &expect);
        assert_eq!(count_flips(&expect, &expect), 0);
        if len == 0 {
            continue;
        }
        // One flipped bit in the first byte and one in the last byte.
        let mut read = expect.clone();
        read[0] ^= 0x01;
        read[len - 1] ^= 0x80;
        assert_kernel_matches(&read, &expect);
        let last = len as u32 - 1;
        let ends = if len == 1 { vec![(0, 0), (0, 7)] } else { vec![(0, 0), (last, 7)] };
        assert_eq!(flip_positions(&read, &expect), ends);
        // All-ones difference: every bit flipped.
        let inverted: Vec<u8> = expect.iter().map(|b| !b).collect();
        assert_kernel_matches(&inverted, &expect);
        assert_eq!(count_flips(&inverted, &expect), 8 * len as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mapping_bijective(mfr in any_mfr(), row in 0u32..1_000_000) {
        let m = RowMapping::for_manufacturer(mfr);
        let l = RowAddr(row);
        prop_assert_eq!(m.physical_to_logical(m.logical_to_physical(l)), l);
    }

    #[test]
    fn mapping_preserves_row_space(mfr in any_mfr(), row in 0u32..65_536) {
        let m = RowMapping::for_manufacturer(mfr);
        let p = m.logical_to_physical(RowAddr(row));
        // Conditional XOR schemes only permute within small blocks.
        prop_assert!(p.0 < 65_536);
    }

    #[test]
    fn write_read_roundtrip(mfr in any_mfr(), bank in 0u32..8, row in 0u32..32_768, byte in any::<u8>()) {
        let mut m = DramModule::new(ModuleConfig::ddr4(mfr));
        let data = vec![byte; m.row_bytes()];
        m.write_row_direct(BankId(bank), RowAddr(row), &data).unwrap();
        prop_assert_eq!(m.read_row_direct(BankId(bank), RowAddr(row)).unwrap(), data);
    }

    #[test]
    fn distinct_rows_do_not_alias(mfr in any_mfr(), r1 in 0u32..4096, r2 in 0u32..4096) {
        prop_assume!(r1 != r2);
        let mut m = DramModule::new(ModuleConfig::ddr4(mfr));
        let d1 = vec![0x11u8; m.row_bytes()];
        let d2 = vec![0x22u8; m.row_bytes()];
        m.write_row_direct(BankId(0), RowAddr(r1), &d1).unwrap();
        m.write_row_direct(BankId(0), RowAddr(r2), &d2).unwrap();
        prop_assert_eq!(m.read_row_direct(BankId(0), RowAddr(r1)).unwrap(), d1);
        prop_assert_eq!(m.read_row_direct(BankId(0), RowAddr(r2)).unwrap(), d2);
    }

    #[test]
    fn pattern_fill_length_and_determinism(kind in any_pattern(), row in 0u32..10_000, d in -8i64..=8, len in 1usize..4096) {
        let p = DataPattern::new(kind, 1234);
        let a = p.row_fill(RowAddr(row), d, len);
        let b = p.row_fill(RowAddr(row), d, len);
        prop_assert_eq!(a.len(), len);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn command_hammer_loop_delivers_every_episode(n in 1u64..50) {
        let hammers = Arc::new(Mutex::new(Vec::new()));
        let model = HammerLog(Arc::clone(&hammers));
        let mut m = DramModule::with_model(ModuleConfig::ddr4(Manufacturer::D), Box::new(model));
        let t = m.config().timing;
        let b = BankId(0);
        let mut at = 0;
        for _ in 0..n {
            m.issue(&TimedCommand { at, cmd: Command::Act { bank: b, row: RowAddr(10) } }).unwrap();
            at += t.t_ras;
            m.issue(&TimedCommand { at, cmd: Command::Pre { bank: b } }).unwrap();
            at += t.t_rp;
        }
        m.flush_hammers();
        // Direct mapping for Mfr. D: logical row 10 is physical row 10.
        let want = vec![(RowAddr(10), 1, t.t_ras, t.t_rp); n as usize];
        prop_assert_eq!(&*hammers.lock().unwrap(), &want);
    }

    #[test]
    fn quantize_idempotent(t_ps in 0u64..10_000_000) {
        let t = rh_dram::TimingParams::ddr4_2400();
        let q = t.quantize(t_ps);
        prop_assert_eq!(t.quantize(q), q);
        prop_assert!(q >= t_ps);
        prop_assert!(q - t_ps < t.clock);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_diff_kernel_matches_bytewise(
        len in 0usize..=8200,
        seed in any::<u64>(),
        mode in 0u8..4,
        picks in prop::collection::vec(any::<u64>(), 1..40),
    ) {
        let expect = random_row(seed, len);
        let mut read = expect.clone();
        match mode {
            // Equal rows.
            0 => {}
            // Sparse: a few single-bit flips anywhere (repeats cancel).
            1 if len > 0 => {
                for p in &picks {
                    let at = (p % (8 * len as u64)) as usize;
                    read[at / 8] ^= 1 << (at % 8);
                }
            }
            // All-ones difference.
            2 => read.iter_mut().for_each(|b| *b = !*b),
            // Unrelated row: dense random differences.
            _ => read = random_row(seed ^ 0x5555, len),
        }
        prop_assert_eq!(count_flips(&read, &expect), bytewise_count(&read, &expect));
        prop_assert_eq!(flip_positions(&read, &expect), bytewise_positions(&read, &expect));
    }
}
