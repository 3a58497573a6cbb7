//! The study's two metrics (§4.2): **BER** — bit flips per victim row
//! at a fixed hammer count — and **HCfirst** — the minimum hammer count
//! at which the first bit flip appears, located by binary search with
//! 512-activation accuracy under a 512 K-hammer cap.

use crate::config::Scale;
use crate::error::CharError;
use crate::mapping_re;
use crate::wcdp;
use rh_dram::{BankId, DataPattern, Picos, RowAddr, RowFill, RowMapping};
use rh_softmc::TestBench;
use serde::{Deserialize, Serialize};
use rh_obs::names;

/// Hammer count of all BER experiments (150 K hammers = 300 K
/// activations, §4.2).
pub const BER_HAMMERS: u64 = 150_000;

/// Cap of the HCfirst search (tests stay under one 64 ms refresh
/// window, §4.2).
pub const HC_FIRST_CAP: u64 = 512 * 1024;

/// Accuracy of the HCfirst binary search, in hammers.
pub const HC_FIRST_ACCURACY: u64 = 512;

/// Bit flips measured in one double-sided hammer test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BerMeasurement {
    /// Flips in the double-sided victim row (physical distance 0).
    pub victim: u64,
    /// Flips in the single-sided victim at physical distance −2.
    pub left2: u64,
    /// Flips in the single-sided victim at physical distance +2.
    pub right2: u64,
}

impl BerMeasurement {
    /// Total flips across the three observed victim rows.
    pub fn total(&self) -> u64 {
        self.victim + self.left2 + self.right2
    }
}

/// A fully-initialized characterization session for one module: the
/// row mapping has been reverse engineered and the module's worst-case
/// data pattern identified, exactly as the paper's methodology
/// prescribes before any measurement (§4.2).
#[derive(Debug)]
pub struct Characterizer {
    bench: TestBench,
    bank: BankId,
    scale: Scale,
    mapping: RowMapping,
    wcdp: DataPattern,
}

impl Characterizer {
    /// Prepares a module for characterization: reverse-engineers the
    /// row mapping by single-sided hammering and identifies the
    /// worst-case data pattern (both at 75 °C).
    ///
    /// # Errors
    ///
    /// [`CharError::MappingUnresolved`] if no consistent mapping scheme
    /// explains the observed aggressor→victim adjacency, or
    /// infrastructure errors.
    pub fn new(mut bench: TestBench, scale: Scale) -> Result<Self, CharError> {
        let bank = BankId(0);
        bench.set_temperature(75.0)?;
        let mapping = mapping_re::reverse_engineer(&mut bench, bank, scale)?;
        let wcdp = wcdp::find_wcdp(&mut bench, &mapping, bank, scale)?;
        Ok(Self { bench, bank, scale, mapping, wcdp })
    }

    /// The test bench under control.
    pub fn bench(&self) -> &TestBench {
        &self.bench
    }

    /// Mutable access to the test bench.
    pub fn bench_mut(&mut self) -> &mut TestBench {
        &mut self.bench
    }

    /// The bank all tests run in.
    pub fn bank(&self) -> BankId {
        self.bank
    }

    /// The experiment scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The reverse-engineered row mapping.
    pub fn mapping(&self) -> RowMapping {
        self.mapping
    }

    /// The module's worst-case data pattern.
    pub fn wcdp(&self) -> DataPattern {
        self.wcdp
    }

    /// Sets the chip temperature through the closed-loop controller.
    ///
    /// # Errors
    ///
    /// Propagates [`rh_softmc::SoftMcError::TemperatureUnstable`].
    pub fn set_temperature(&mut self, celsius: f64) -> Result<f64, CharError> {
        Ok(self.bench.set_temperature(celsius)?)
    }

    /// Logical address of a physical row under the inferred mapping.
    pub fn logical_of(&self, phys: RowAddr) -> RowAddr {
        self.mapping.physical_to_logical(phys)
    }

    /// Writes `pattern` to the victim and its physical ±radius
    /// neighborhood (the paper writes V±[1..8], Table 1).
    ///
    /// # Errors
    ///
    /// [`CharError::VictimOutOfRange`] if the neighborhood exceeds the
    /// bank, or device errors.
    pub fn write_neighborhood(
        &mut self,
        victim_phys: RowAddr,
        pattern: DataPattern,
    ) -> Result<(), CharError> {
        let radius = self.scale.neighborhood_radius() as i64;
        let rows = self.bench.module().geometry().rows_per_bank;
        if (victim_phys.0 as i64) < radius || victim_phys.0 as i64 + radius >= rows as i64 {
            return Err(CharError::VictimOutOfRange { row: victim_phys.0 });
        }
        for d in -radius..=radius {
            let phys = RowAddr((victim_phys.0 as i64 + d) as u32);
            let logical = self.mapping.physical_to_logical(phys);
            let fill = RowFill::new(pattern, phys, d);
            self.bench.module_mut().write_row_fill(self.bank, logical, fill)?;
        }
        Ok(())
    }

    /// Writes the neighborhood and hammers both physical neighbors of
    /// the victim `hammers` times at the given timings: the first half
    /// of every double-sided test.
    fn write_and_hammer(
        &mut self,
        victim_phys: RowAddr,
        pattern: DataPattern,
        hammers: u64,
        t_on: Option<Picos>,
        t_off: Option<Picos>,
    ) -> Result<(), CharError> {
        self.write_neighborhood(victim_phys, pattern)?;
        let left = self.mapping.physical_to_logical(RowAddr(victim_phys.0 - 1));
        let right = self.mapping.physical_to_logical(RowAddr(victim_phys.0 + 1));
        self.bench.hammer_double_sided(self.bank, left, right, hammers, t_on, t_off)?;
        Ok(())
    }

    /// Reads the row at physical distance `d` from the victim and
    /// counts bits that differ from the written pattern.
    fn count_flips(
        &mut self,
        victim_phys: RowAddr,
        d: i64,
        pattern: DataPattern,
    ) -> Result<u64, CharError> {
        let phys = RowAddr((victim_phys.0 as i64 + d) as u32);
        let logical = self.mapping.physical_to_logical(phys);
        let read = self.bench.module_mut().read_row_view(self.bank, logical)?;
        Ok(read.count_flips(RowFill::new(pattern, phys, d)))
    }

    /// One double-sided hammer test (§4.2): writes the neighborhood,
    /// hammers both physical neighbors of the victim `hammers` times at
    /// the given timings, and reads back the double-sided victim and
    /// the two single-sided victims (±2).
    ///
    /// # Errors
    ///
    /// Range and device errors.
    pub fn measure_ber(
        &mut self,
        victim_phys: RowAddr,
        pattern: DataPattern,
        hammers: u64,
        t_on: Option<Picos>,
        t_off: Option<Picos>,
    ) -> Result<BerMeasurement, CharError> {
        rh_obs::counter!(names::CORE_BER_MEASUREMENTS, 1);
        self.write_and_hammer(victim_phys, pattern, hammers, t_on, t_off)?;
        Ok(BerMeasurement {
            victim: self.count_flips(victim_phys, 0, pattern)?,
            left2: self.count_flips(victim_phys, -2, pattern)?,
            right2: self.count_flips(victim_phys, 2, pattern)?,
        })
    }

    /// BER at the paper's standard 150 K hammers with the module's
    /// worst-case pattern and standard timings.
    ///
    /// # Errors
    ///
    /// Range and device errors.
    pub fn measure_ber_default(&mut self, victim_phys: RowAddr) -> Result<BerMeasurement, CharError> {
        let p = self.wcdp;
        self.measure_ber(victim_phys, p, BER_HAMMERS, None, None)
    }

    /// One double-sided hammer test that reports the *positions* of the
    /// flipped bits in the victim row (used by the per-cell temperature
    /// clustering of §5.1).
    ///
    /// # Errors
    ///
    /// Range and device errors.
    pub fn flipped_cells(
        &mut self,
        victim_phys: RowAddr,
        pattern: DataPattern,
        hammers: u64,
    ) -> Result<Vec<(u32, u8)>, CharError> {
        self.write_and_hammer(victim_phys, pattern, hammers, None, None)?;
        let logical = self.mapping.physical_to_logical(victim_phys);
        let read = self.bench.module_mut().read_row_view(self.bank, logical)?;
        Ok(read.flip_positions(RowFill::new(pattern, victim_phys, 0)))
    }

    /// Whether a single double-sided test at `hammers` flips any bit in
    /// the victim row.
    ///
    /// Only the victim is sensed. Rows ±2 are restored unsensed, in the
    /// order [`measure_ber`](Self::measure_ber) reads them, so the
    /// model's restore sequence (trial nonce, cleared disturbance,
    /// retention clocks) is exactly that of the full test: every later
    /// noise draw stays aligned. Their unread flips cannot leak into a
    /// result either, because the next test's
    /// [`write_neighborhood`](Self::write_neighborhood) rewrites ±2
    /// before anything senses them.
    fn flips_at(
        &mut self,
        victim_phys: RowAddr,
        pattern: DataPattern,
        hammers: u64,
        t_on: Option<Picos>,
        t_off: Option<Picos>,
    ) -> Result<bool, CharError> {
        self.write_and_hammer(victim_phys, pattern, hammers, t_on, t_off)?;
        let flipped = self.count_flips(victim_phys, 0, pattern)? > 0;
        for d in [-2i64, 2] {
            let logical =
                self.mapping.physical_to_logical(RowAddr((victim_phys.0 as i64 + d) as u32));
            self.bench.module_mut().restore_row_direct(self.bank, logical)?;
        }
        Ok(flipped)
    }

    /// The paper's HCfirst binary search (§4.2): start at 256 K
    /// hammers, step by Δ = 128 K, halving Δ each test down to 512;
    /// `None` if the row survives the 512 K cap.
    ///
    /// # Errors
    ///
    /// Range and device errors.
    pub fn hc_first(
        &mut self,
        victim_phys: RowAddr,
        pattern: DataPattern,
        t_on: Option<Picos>,
        t_off: Option<Picos>,
    ) -> Result<Option<u64>, CharError> {
        let mut span = rh_obs::span!(names::CORE_HC_FIRST, row = victim_phys.0);
        let mut probes = 1u64;
        let first_probe = rh_obs::timer!(names::CORE_HC_FIRST_PROBE_NS);
        let survives = !self.flips_at(victim_phys, pattern, HC_FIRST_CAP, t_on, t_off)?;
        drop(first_probe);
        if survives {
            span.set("probes", probes);
            span.set("found", false);
            return Ok(None);
        }
        let mut hc: i64 = 256 * 1024;
        let mut delta: i64 = 128 * 1024;
        let mut best: i64 = HC_FIRST_CAP as i64;
        while delta >= HC_FIRST_ACCURACY as i64 {
            // A cancelled campaign abandons the search between probes —
            // the binary search is the longest measurement loop in the
            // stack, so waiting for its natural end would make
            // shutdown latency a multiple of the probe time.
            self.bench.check_cancelled("hc_first search")?;
            let probe = hc.clamp(HC_FIRST_ACCURACY as i64, HC_FIRST_CAP as i64);
            probes += 1;
            let _probe_timer = rh_obs::timer!(names::CORE_HC_FIRST_PROBE_NS);
            if self.flips_at(victim_phys, pattern, probe as u64, t_on, t_off)? {
                best = best.min(probe);
                hc = probe - delta;
            } else {
                hc = probe + delta;
            }
            delta /= 2;
        }
        span.set("probes", probes);
        span.set("found", true);
        span.set("hc", best as u64);
        Ok(Some(best as u64))
    }

    /// HCfirst with the module's worst-case pattern at standard
    /// timings, taking the minimum over the scale's repetitions (the
    /// paper repeats five times and keeps the minimum, Fig. 11).
    ///
    /// # Errors
    ///
    /// Range and device errors.
    pub fn hc_first_default(&mut self, victim_phys: RowAddr) -> Result<Option<u64>, CharError> {
        let p = self.wcdp;
        let mut best: Option<u64> = None;
        for _ in 0..self.scale.repetitions() {
            self.bench.check_cancelled("hc_first repetitions")?;
            if let Some(hc) = self.hc_first(victim_phys, p, None, None)? {
                best = Some(best.map_or(hc, |b: u64| b.min(hc)));
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_dram::{Manufacturer, ModuleConfig};
    use rh_faultmodel::{MfrProfile, RowHammerModel};

    fn characterizer(mfr: Manufacturer) -> Characterizer {
        Characterizer::new(TestBench::new(mfr, 42), Scale::Smoke).unwrap()
    }

    /// A characterizer over an explicitly ablated fault model. With
    /// `rep_noise_sigma = 0` every probe of the same hammer count gives
    /// the same answer, so search properties can be asserted exactly.
    fn ablated_characterizer(profile: MfrProfile, module_seed: u64) -> Characterizer {
        let cfg = ModuleConfig::ddr4(profile.manufacturer);
        let model = RowHammerModel::with_profile(profile, module_seed);
        let bench = TestBench::with_fault_model(cfg, model, module_seed);
        Characterizer::new(bench, Scale::Smoke).unwrap()
    }

    fn noise_free(mfr: Manufacturer) -> MfrProfile {
        MfrProfile { rep_noise_sigma: 0.0, ..MfrProfile::for_manufacturer(mfr) }
    }

    /// Brute-force reference for the binary search: linear scan of the
    /// accuracy grid from below, first hammer count that flips the
    /// victim.
    fn brute_force_hc_first(
        ch: &mut Characterizer,
        row: RowAddr,
        pattern: DataPattern,
        limit: u64,
    ) -> Option<u64> {
        let mut n = HC_FIRST_ACCURACY;
        while n <= limit {
            if ch.measure_ber(row, pattern, n, None, None).unwrap().victim > 0 {
                return Some(n);
            }
            n += HC_FIRST_ACCURACY;
        }
        None
    }

    #[test]
    fn construction_resolves_mapping_to_ground_truth() {
        for mfr in Manufacturer::ALL {
            let ch = characterizer(mfr);
            assert_eq!(
                ch.mapping(),
                RowMapping::for_manufacturer(mfr),
                "{mfr}: reverse engineering disagrees with ground truth"
            );
        }
    }

    #[test]
    fn ber_increases_with_hammer_count() {
        let mut ch = characterizer(Manufacturer::B);
        ch.set_temperature(75.0).unwrap();
        let p = ch.wcdp();
        let low = ch.measure_ber(RowAddr(600), p, 20_000, None, None).unwrap();
        let high = ch.measure_ber(RowAddr(600), p, 500_000, None, None).unwrap();
        assert!(high.victim > low.victim);
    }

    #[test]
    fn double_sided_victim_flips_most() {
        let mut ch = characterizer(Manufacturer::B);
        ch.set_temperature(75.0).unwrap();
        let m = ch.measure_ber_default(RowAddr(600)).unwrap();
        assert!(m.victim >= m.left2);
        assert!(m.victim >= m.right2);
    }

    #[test]
    fn hc_first_is_consistent_with_direct_test() {
        let mut ch = characterizer(Manufacturer::B);
        ch.set_temperature(75.0).unwrap();
        let p = ch.wcdp();
        if let Some(hc) = ch.hc_first(RowAddr(444), p, None, None).unwrap() {
            // Hammering at ~2× HCfirst must flip (floor noise aside).
            assert!(ch
                .measure_ber(RowAddr(444), p, hc * 2, None, None)
                .unwrap()
                .victim
                > 0);
            assert!(hc >= HC_FIRST_ACCURACY);
            assert!(hc <= HC_FIRST_CAP);
        }
    }

    #[test]
    fn hc_first_within_accuracy_of_brute_force() {
        let mut ch = ablated_characterizer(noise_free(Manufacturer::B), 42);
        ch.set_temperature(75.0).unwrap();
        let p = ch.wcdp();
        let mut compared = 0;
        for row in [444u32, 600, 900] {
            let row = RowAddr(row);
            let Some(hc) = ch.hc_first(row, p, None, None).unwrap() else { continue };
            // Scanning the grid from below must hit the first flipping
            // count within one accuracy step of the search's answer.
            let bf = brute_force_hc_first(&mut ch, row, p, hc + HC_FIRST_ACCURACY)
                .expect("scan up to hc + accuracy must flip");
            assert!(
                hc.abs_diff(bf) <= HC_FIRST_ACCURACY,
                "row {}: binary search {hc} vs brute force {bf}",
                row.0
            );
            compared += 1;
        }
        assert!(compared > 0, "every sampled row survived the cap; pick weaker rows");
    }

    #[test]
    fn hc_first_none_iff_row_survives_cap() {
        // Median cell threshold pushed toward the cap so the sampled
        // rows straddle it: some flip below 512 K, some survive.
        let profile =
            MfrProfile { hc_median: 800_000.0, ..noise_free(Manufacturer::D) };
        let mut ch = ablated_characterizer(profile, 7);
        ch.set_temperature(75.0).unwrap();
        let p = ch.wcdp();
        let (mut flipped, mut survived) = (0u32, 0u32);
        for row in (500..3000).step_by(311) {
            let row = RowAddr(row);
            let hc = ch.hc_first(row, p, None, None).unwrap();
            let survives =
                ch.measure_ber(row, p, HC_FIRST_CAP, None, None).unwrap().victim == 0;
            assert_eq!(hc.is_none(), survives, "row {}", row.0);
            match hc {
                Some(v) => {
                    // The search only reports grid points inside its
                    // clamp bounds.
                    assert_eq!(v % HC_FIRST_ACCURACY, 0, "row {}: off-grid {v}", row.0);
                    assert!((HC_FIRST_ACCURACY..=HC_FIRST_CAP).contains(&v));
                    flipped += 1;
                }
                None => survived += 1,
            }
        }
        assert!(
            flipped > 0 && survived > 0,
            "sample must cover both outcomes: {flipped} flipped, {survived} survived"
        );
    }

    #[test]
    fn hc_first_monotone_in_temperature() {
        // Ablation under which monotonicity is exact: every window is
        // rising-type and far wider than the tested range (once open, a
        // window never closes below 90 °C) and the threshold parabola
        // is flattened (kappa = 0). The vulnerable population can then
        // only grow with temperature, so HCfirst never increases.
        let profile = MfrProfile {
            rep_noise_sigma: 0.0,
            kappa: 0.0,
            p_full_range: 0.0,
            p_rising: 1.0,
            width_mean: 500.0,
            ..MfrProfile::for_manufacturer(Manufacturer::A)
        };
        let mut ch = ablated_characterizer(profile, 42);
        let p = ch.wcdp();
        let mut seen_flip = false;
        for row in [600u32, 700, 1200] {
            let row = RowAddr(row);
            let mut last = u64::MAX; // None = survives the cap = +∞
            for t in [55.0, 65.0, 75.0, 85.0] {
                ch.set_temperature(t).unwrap();
                let hc = ch.hc_first(row, p, None, None).unwrap();
                let v = hc.unwrap_or(u64::MAX);
                assert!(
                    v <= last,
                    "row {}: HCfirst rose from {last} to {v} at {t} °C",
                    row.0
                );
                seen_flip |= hc.is_some();
                last = v;
            }
        }
        assert!(seen_flip, "no sampled row ever flipped; the sweep is vacuous");
    }

    /// The probe as it was before it sensed only the victim: a full
    /// three-row BER test. The oracle for [`Characterizer::flips_at`].
    fn flips_at_reference(
        ch: &mut Characterizer,
        row: RowAddr,
        pattern: DataPattern,
        hammers: u64,
        t_on: Option<Picos>,
    ) -> bool {
        ch.measure_ber(row, pattern, hammers, t_on, None).unwrap().victim > 0
    }

    fn victim_bytes(ch: &Characterizer, row: RowAddr) -> Vec<u8> {
        ch.bench().module().peek_row(ch.bank(), ch.logical_of(row)).unwrap()
    }

    #[test]
    fn victim_only_probe_matches_full_ber_probe() {
        let longest_on = rh_dram::timing::t_agg_on_sweep().into_iter().max();
        let (mut flipped, mut survived) = (0u32, 0u32);
        for mfr in Manufacturer::ALL {
            // Twins: same module, same seed. `fast` probes through
            // `flips_at`, `full` through the three-row reference;
            // `scout` only locates the HCfirst the ladder straddles.
            let mut fast = characterizer(mfr);
            let mut full = characterizer(mfr);
            let mut scout = characterizer(mfr);
            let p = fast.wcdp();
            let row = RowAddr(600);
            for temp in [50.0, 75.0, 90.0] {
                for ch in [&mut fast, &mut full, &mut scout] {
                    ch.set_temperature(temp).unwrap();
                }
                for t_on in [None, longest_on] {
                    let ladder = match scout.hc_first(row, p, t_on, None).unwrap() {
                        Some(hc) => vec![
                            hc / 2,
                            hc.saturating_sub(HC_FIRST_ACCURACY).max(HC_FIRST_ACCURACY),
                            hc,
                            hc + HC_FIRST_ACCURACY,
                            2 * hc,
                            HC_FIRST_CAP,
                        ],
                        None => vec![HC_FIRST_CAP / 4, HC_FIRST_CAP / 2, HC_FIRST_CAP],
                    };
                    let case = format!("{mfr} {temp} °C t_on {t_on:?}");
                    for n in ladder {
                        let got = fast.flips_at(row, p, n, t_on, None).unwrap();
                        let want = flips_at_reference(&mut full, row, p, n, t_on);
                        assert_eq!(got, want, "{case}: probe at {n}");
                        assert_eq!(
                            victim_bytes(&fast, row),
                            victim_bytes(&full, row),
                            "{case}: victim contents after probe at {n}"
                        );
                        if got {
                            flipped += 1;
                        } else {
                            survived += 1;
                        }
                    }
                    // Same restore sequence ⇒ same trial nonce: a full
                    // test after the ladder draws identical noise.
                    assert_eq!(
                        fast.measure_ber_default(row).unwrap(),
                        full.measure_ber_default(row).unwrap(),
                        "{case}: BER after the ladder"
                    );
                }
            }
        }
        assert!(
            flipped > 0 && survived > 0,
            "ladders must straddle HCfirst: {flipped} flipped, {survived} survived"
        );
    }

    #[test]
    fn victim_at_edge_rejected() {
        let mut ch = characterizer(Manufacturer::A);
        let p = ch.wcdp();
        let e = ch.measure_ber(RowAddr(0), p, 1000, None, None).unwrap_err();
        assert!(matches!(e, CharError::VictimOutOfRange { .. }));
    }
}
