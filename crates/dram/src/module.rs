//! The DRAM module: a rank of lock-step chips with sparse row storage,
//! a command interface with timing enforcement, and a pluggable
//! [`DisturbanceModel`] through which a RowHammer fault model observes
//! activations and injects bit flips.

use crate::bank::{Bank, HammerEvent};
use crate::command::{Command, TimedCommand};
use crate::error::DramError;
use crate::geometry::{BankId, DramGeometry, Manufacturer, RowAddr};
use crate::mapping::RowMapping;
use crate::timing::{Picos, TimingParams};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use rh_obs::names;

/// One bit flip within a row, as reported by a disturbance model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitFlip {
    /// Byte offset within the row (module-level).
    pub byte: u32,
    /// Bit within the byte (0 = LSB).
    pub bit: u8,
}

/// The hook through which a RowHammer fault model observes DRAM
/// activity and injects disturbance errors.
///
/// `rh-dram` ships only [`NullDisturbance`]; the calibrated model lives
/// in the `rh-faultmodel` crate. All rows are *physical* rows.
pub trait DisturbanceModel: Send {
    /// Tells the model the geometry of the module it is installed
    /// into. Called once by [`DramModule::with_model`]; models use the
    /// row count to clamp victim accumulation to rows that exist.
    /// The default does nothing (geometry-oblivious models).
    fn configure_geometry(&mut self, _rows_per_bank: u32, _row_bytes: usize) {}

    /// Notifies the model that `row` completed `count` activation
    /// episodes with on-time `t_on` and off-time `t_off` each.
    fn on_hammer(&mut self, bank: BankId, row: RowAddr, count: u64, t_on: Picos, t_off: Picos);

    /// The bit flips to materialize in `row` when its cells are sensed
    /// at time `now` (i.e., on activation), given the currently stored
    /// `data`. `now` lets the model account time-dependent error
    /// mechanisms (retention loss) alongside RowHammer disturbance.
    fn flips_on_activate(&mut self, bank: BankId, row: RowAddr, data: &[u8], now: Picos)
        -> Vec<BitFlip>;

    /// Notifies the model that `row`'s cells were restored to full
    /// charge at time `now` (activation restore, refresh, or an
    /// explicit rewrite): accumulated disturbance on that row is
    /// cleared and its retention clock restarts.
    fn on_restore(&mut self, bank: BankId, row: RowAddr, now: Picos);

    /// Sets the DRAM die temperature seen by the model (°C).
    fn set_temperature(&mut self, celsius: f64);

    /// The DRAM die temperature seen by the model (°C).
    fn temperature(&self) -> f64;

    /// Applies the leading *quiet* episodes of `run` and returns how
    /// many it applied (at most `run.n`).
    ///
    /// Each episode senses its row, restores it and hammers it once:
    /// `flips_on_activate` (if the row is stored), `on_restore` and
    /// `on_hammer(.., 1, ..)`, all at the episode's own time. An
    /// episode is quiet if that sensing can flip no bit, whatever the
    /// row stores; the model may then account it any way that leaves
    /// its state exactly as that call sequence would. The module runs
    /// the first episode that is not applied through the exact calls,
    /// and asks again for the rest. The default proves nothing quiet
    /// and applies none.
    fn hammer_quiet_prefix(&mut self, _run: &RoundRobin<'_>) -> u64 {
        0
    }
}

/// A run of activation episodes cycling over a list of physical rows,
/// as [`DramModule::hammer_round_robin_direct`] hands it to
/// [`DisturbanceModel::hammer_quiet_prefix`].
#[derive(Debug, Clone, Copy)]
pub struct RoundRobin<'a> {
    /// The bank hammered.
    pub bank: BankId,
    /// Physical aggressor rows, in activation order (not empty).
    pub rows: &'a [RowAddr],
    /// Index into `rows` of the first episode's row.
    pub start: usize,
    /// Episodes in the run.
    pub n: u64,
    /// On-time of every episode.
    pub t_on: Picos,
    /// Off-time of every episode.
    pub t_off: Picos,
    /// Time of the first episode; each later one starts
    /// `t_on + t_off` after its predecessor.
    pub now: Picos,
}

impl RoundRobin<'_> {
    /// The row episode `j` activates.
    pub fn row(&self, j: u64) -> RowAddr {
        let k = self.rows.len() as u64;
        self.rows[((self.start as u64 % k + j % k) % k) as usize]
    }

    /// The time episode `j` senses its row.
    pub fn at(&self, j: u64) -> Picos {
        self.now + j * (self.t_on + self.t_off)
    }
}

/// A disturbance model that never flips bits (an ideal, RowHammer-free
/// device).
#[derive(Debug, Clone, Default)]
pub struct NullDisturbance {
    temperature: f64,
}

impl DisturbanceModel for NullDisturbance {
    fn on_hammer(&mut self, _: BankId, _: RowAddr, _: u64, _: Picos, _: Picos) {}

    fn flips_on_activate(&mut self, _: BankId, _: RowAddr, _: &[u8], _: Picos) -> Vec<BitFlip> {
        Vec::new()
    }

    fn on_restore(&mut self, _: BankId, _: RowAddr, _: Picos) {}

    fn set_temperature(&mut self, celsius: f64) {
        self.temperature = celsius;
    }

    fn temperature(&self) -> f64 {
        self.temperature
    }
}

/// Configuration of a [`DramModule`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModuleConfig {
    /// Module geometry.
    pub geometry: DramGeometry,
    /// Timing parameter set.
    pub timing: TimingParams,
    /// In-DRAM row remapping scheme.
    pub mapping: RowMapping,
    /// Manufacturer of the module's chips.
    pub manufacturer: Manufacturer,
    /// Whether commands violating minimum timings are rejected.
    pub enforce_timings: bool,
}

impl ModuleConfig {
    /// A DDR4 8 Gb x8 module of `mfr` with standard timings.
    pub fn ddr4(mfr: Manufacturer) -> Self {
        let geometry = match mfr {
            Manufacturer::A | Manufacturer::D => DramGeometry::ddr4_8gb_x8(),
            Manufacturer::B | Manufacturer::C => DramGeometry::ddr4_4gb_x8(),
        };
        Self {
            geometry,
            timing: TimingParams::ddr4_2400(),
            mapping: RowMapping::for_manufacturer(mfr),
            manufacturer: mfr,
            enforce_timings: true,
        }
    }

    /// A DDR3 4 Gb x8 module of `mfr` with standard timings.
    pub fn ddr3(mfr: Manufacturer) -> Self {
        Self {
            geometry: DramGeometry::ddr3_4gb_x8(),
            timing: TimingParams::ddr3_1600(),
            mapping: RowMapping::for_manufacturer(mfr),
            manufacturer: mfr,
            enforce_timings: true,
        }
    }

    /// Shorthand for the Mfr. A DDR4 8 Gb x8 configuration.
    pub fn ddr4_8gb_x8() -> Self {
        Self::ddr4(Manufacturer::A)
    }
}

/// A simulated DRAM module (one rank of lock-step chips).
///
/// Rows are stored sparsely: only written rows consume memory, so
/// full-density geometries cost nothing until touched. The module is
/// driven either through the timed command interface ([`issue`]) — used
/// by the SoftMC program executor — or through the direct row-level API
/// (`write_row_direct` / `read_row_direct` / `hammer_direct`) used by
/// bulk experiment fast paths.
///
/// [`issue`]: DramModule::issue
pub struct DramModule {
    cfg: ModuleConfig,
    banks: Vec<Bank>,
    storage: HashMap<(u32, u32), Box<[u8]>>,
    model: Box<dyn DisturbanceModel>,
    now: Picos,
}

impl std::fmt::Debug for DramModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramModule")
            .field("cfg", &self.cfg)
            .field("rows_stored", &self.storage.len())
            .field("now", &self.now)
            .finish()
    }
}

impl DramModule {
    /// Creates a module with an ideal (never-flipping) disturbance
    /// model.
    pub fn new(cfg: ModuleConfig) -> Self {
        Self::with_model(cfg, Box::new(NullDisturbance::default()))
    }

    /// Creates a module backed by `model`.
    pub fn with_model(cfg: ModuleConfig, mut model: Box<dyn DisturbanceModel>) -> Self {
        let banks = (0..cfg.geometry.banks).map(|i| Bank::new(BankId(i))).collect();
        model.configure_geometry(cfg.geometry.rows_per_bank, cfg.geometry.row_bytes());
        Self { cfg, banks, storage: HashMap::new(), model, now: 0 }
    }

    /// Module configuration.
    pub fn config(&self) -> &ModuleConfig {
        &self.cfg
    }

    /// Module geometry.
    pub fn geometry(&self) -> DramGeometry {
        self.cfg.geometry
    }

    /// Bytes per row across the rank.
    pub fn row_bytes(&self) -> usize {
        self.cfg.geometry.row_bytes()
    }

    /// Current simulated time (ps).
    pub fn now(&self) -> Picos {
        self.now
    }

    /// Shared access to the installed disturbance model.
    pub fn model(&self) -> &dyn DisturbanceModel {
        self.model.as_ref()
    }

    /// Sets the DRAM die temperature (°C) seen by the fault model.
    pub fn set_temperature(&mut self, celsius: f64) {
        self.model.set_temperature(celsius);
    }

    /// Access to a bank's activation statistics.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: BankId) -> &Bank {
        &self.banks[bank.0 as usize]
    }

    fn check_bank(&self, bank: BankId) -> Result<(), DramError> {
        if !self.cfg.geometry.contains_bank(bank) {
            return Err(DramError::BankOutOfRange { bank, banks: self.cfg.geometry.banks });
        }
        Ok(())
    }

    fn check_row(&self, row: RowAddr) -> Result<(), DramError> {
        if !self.cfg.geometry.contains_row(row) {
            return Err(DramError::RowOutOfRange { row, rows: self.cfg.geometry.rows_per_bank });
        }
        Ok(())
    }

    /// Issues one timed command.
    ///
    /// Reads return the 8-byte beat. Time must be monotone
    /// non-decreasing across calls.
    ///
    /// # Errors
    ///
    /// Propagates [`DramError`] for illegal transitions, out-of-range
    /// addresses, and (when `enforce_timings`) timing violations. Reads
    /// of never-written rows yield [`DramError::UninitializedRow`].
    pub fn issue(&mut self, tc: &TimedCommand) -> Result<Option<[u8; 8]>, DramError> {
        let res = self.issue_inner(tc);
        if let Err(DramError::TimingViolation { parameter, .. }) = &res {
            rh_obs::counter(names::DRAM_TIMING_VIOLATION, 1);
            rh_obs::event!(names::DRAM_TIMING_VIOLATION, parameter = *parameter);
        }
        res
    }

    fn issue_inner(&mut self, tc: &TimedCommand) -> Result<Option<[u8; 8]>, DramError> {
        debug_assert!(tc.at >= self.now, "command time went backwards");
        self.now = self.now.max(tc.at);
        match &tc.cmd {
            Command::Act { bank, row } => {
                self.check_bank(*bank)?;
                self.check_row(*row)?;
                let phys = self.cfg.mapping.logical_to_physical(*row);
                let timing = self.cfg.timing;
                let enforce = self.cfg.enforce_timings;
                let event = self.banks[bank.0 as usize].activate(tc.at, phys, &timing, enforce)?;
                if let Some(ev) = event {
                    self.deliver_hammer(*bank, ev);
                }
                self.sense_and_restore(*bank, phys);
                Ok(None)
            }
            Command::Pre { bank } => {
                self.check_bank(*bank)?;
                let timing = self.cfg.timing;
                let enforce = self.cfg.enforce_timings;
                self.banks[bank.0 as usize].precharge(tc.at, &timing, enforce)?;
                Ok(None)
            }
            Command::PreAll => {
                let timing = self.cfg.timing;
                let enforce = self.cfg.enforce_timings;
                for b in &mut self.banks {
                    if b.open_row().is_some() {
                        b.precharge(tc.at, &timing, enforce)?;
                    }
                }
                Ok(None)
            }
            Command::Rd { bank, column } => {
                self.check_bank(*bank)?;
                let timing = self.cfg.timing;
                let enforce = self.cfg.enforce_timings;
                let phys = self.banks[bank.0 as usize].column_access(tc.at, &timing, enforce)?;
                let data = self
                    .storage
                    .get(&(bank.0, phys.0))
                    .ok_or(DramError::UninitializedRow { bank: *bank, row: phys })?;
                let off = (*column as usize) * 8;
                let mut beat = [0u8; 8];
                beat.copy_from_slice(&data[off..off + 8]);
                Ok(Some(beat))
            }
            Command::Wr { bank, column, data } => {
                self.check_bank(*bank)?;
                let timing = self.cfg.timing;
                let enforce = self.cfg.enforce_timings;
                let phys = self.banks[bank.0 as usize].column_access(tc.at, &timing, enforce)?;
                let row_bytes = self.row_bytes();
                let row = self
                    .storage
                    .entry((bank.0, phys.0))
                    .or_insert_with(|| vec![0u8; row_bytes].into_boxed_slice());
                let off = (*column as usize) * 8;
                row[off..off + 8].copy_from_slice(data);
                Ok(None)
            }
            Command::Ref | Command::Nop => Ok(None),
        }
    }

    /// Flushes dangling activation episodes (after the final PRE of a
    /// test) into the disturbance model, attributing them the standard
    /// tRP off-time.
    pub fn flush_hammers(&mut self) {
        let t_rp = self.cfg.timing.t_rp;
        for i in 0..self.banks.len() {
            if let Some(ev) = self.banks[i].flush_pending(t_rp) {
                rh_obs::counter(names::DRAM_HAMMER_FLUSHED, 1);
                self.deliver_hammer(BankId(i as u32), ev);
            }
        }
    }

    fn deliver_hammer(&mut self, bank: BankId, ev: HammerEvent) {
        rh_obs::counter(names::DRAM_HAMMER_EPISODES, 1);
        self.model.on_hammer(bank, ev.row, 1, ev.t_on, ev.t_off);
    }

    /// Senses `phys` row: applies any accumulated disturbance flips to
    /// the stored data and restores the cells (clearing accumulated
    /// disturbance). Mirrors what a row activation does physically.
    fn sense_and_restore(&mut self, bank: BankId, phys: RowAddr) {
        let now = self.now;
        if let Some(data) = self.storage.get_mut(&(bank.0, phys.0)) {
            let flips = self.model.flips_on_activate(bank, phys, data, now);
            if !flips.is_empty() {
                rh_obs::counter(names::DRAM_FLIP, flips.len() as u64);
            }
            for f in flips {
                data[f.byte as usize] ^= 1 << f.bit;
            }
        }
        self.model.on_restore(bank, phys, now);
    }

    // ------------------------------------------------------------------
    // Direct (bulk) interface
    // ------------------------------------------------------------------

    /// Writes a full row, resetting its accumulated disturbance
    /// (equivalent to ACT + WR×columns + PRE, minus the hammering side
    /// effect of the single activation, which is negligible and keeps
    /// initialization side-effect-free).
    ///
    /// # Errors
    ///
    /// [`DramError::BadRowLength`] if `data` is not exactly one row, or
    /// range errors for bad addresses.
    pub fn write_row_direct(
        &mut self,
        bank: BankId,
        row: RowAddr,
        data: &[u8],
    ) -> Result<(), DramError> {
        let _t = rh_obs::timer!(names::DRAM_ROW_WRITE_NS);
        self.check_bank(bank)?;
        self.check_row(row)?;
        if data.len() != self.row_bytes() {
            return Err(DramError::BadRowLength { expected: self.row_bytes(), got: data.len() });
        }
        let phys = self.cfg.mapping.logical_to_physical(row);
        self.storage
            .entry((bank.0, phys.0))
            .and_modify(|stored| stored.copy_from_slice(data))
            .or_insert_with(|| data.into());
        rh_obs::counter(names::DRAM_ROW_WRITE, 1);
        rh_obs::gauge(names::DRAM_ROWS_STORED, self.storage.len() as f64);
        let now = self.now;
        self.model.on_restore(bank, phys, now);
        Ok(())
    }

    /// Reads a full row as an activation would: accumulated disturbance
    /// materializes as bit flips, the row is restored, and the
    /// (possibly corrupted) contents are returned.
    ///
    /// # Errors
    ///
    /// [`DramError::UninitializedRow`] if the row was never written, or
    /// range errors for bad addresses.
    pub fn read_row_direct(&mut self, bank: BankId, row: RowAddr) -> Result<Vec<u8>, DramError> {
        let _t = rh_obs::timer!(names::DRAM_ROW_READ_NS);
        self.check_bank(bank)?;
        self.check_row(row)?;
        let phys = self.cfg.mapping.logical_to_physical(row);
        if !self.storage.contains_key(&(bank.0, phys.0)) {
            return Err(DramError::UninitializedRow { bank, row: phys });
        }
        rh_obs::counter(names::DRAM_ROW_READ, 1);
        self.sense_and_restore(bank, phys);
        Ok(self.storage[&(bank.0, phys.0)].to_vec())
    }

    /// Restores a written row to full charge *without* sensing it: the
    /// model sees the restore (accumulated disturbance cleared,
    /// retention clock restarted) exactly as after a
    /// [`read_row_direct`](Self::read_row_direct), but no flips are
    /// materialized, so the stored bytes and the clock stay unchanged.
    /// For callers that would discard the read, and whose next access
    /// to the row is a rewrite.
    ///
    /// # Errors
    ///
    /// [`DramError::UninitializedRow`] if the row was never written, or
    /// range errors for bad addresses.
    pub fn restore_row_direct(&mut self, bank: BankId, row: RowAddr) -> Result<(), DramError> {
        self.check_bank(bank)?;
        self.check_row(row)?;
        let phys = self.cfg.mapping.logical_to_physical(row);
        if !self.storage.contains_key(&(bank.0, phys.0)) {
            return Err(DramError::UninitializedRow { bank, row: phys });
        }
        let now = self.now;
        self.model.on_restore(bank, phys, now);
        Ok(())
    }

    /// Reads the stored bytes of a row *without* sensing side effects
    /// (no flip materialization, no restore). Oracle-style access for
    /// tests and debugging.
    ///
    /// # Errors
    ///
    /// [`DramError::UninitializedRow`] if the row was never written.
    pub fn peek_row(&self, bank: BankId, row: RowAddr) -> Result<&[u8], DramError> {
        self.check_bank(bank)?;
        self.check_row(row)?;
        let phys = self.cfg.mapping.logical_to_physical(row);
        self.storage
            .get(&(bank.0, phys.0))
            .map(|b| &b[..])
            .ok_or(DramError::UninitializedRow { bank, row: phys })
    }

    /// Bulk fast path: accounts `count` activation episodes of logical
    /// `row` with the given on/off times, without walking the command
    /// interface. Semantically equivalent to `count` ACT/PRE pairs (a
    /// property verified by integration tests).
    ///
    /// # Errors
    ///
    /// Range errors for bad addresses.
    pub fn hammer_direct(
        &mut self,
        bank: BankId,
        row: RowAddr,
        count: u64,
        t_on: Picos,
        t_off: Picos,
    ) -> Result<(), DramError> {
        let _t = rh_obs::timer!(names::DRAM_HAMMER_NS);
        self.check_bank(bank)?;
        self.check_row(row)?;
        let phys = self.cfg.mapping.logical_to_physical(row);
        rh_obs::counter(names::DRAM_HAMMER_EPISODES, count);
        // An activation also senses-and-restores the aggressor row
        // itself, clearing any disturbance accumulated on it.
        self.sense_and_restore(bank, phys);
        self.model.on_hammer(bank, phys, count, t_on, t_off);
        self.now += count * (t_on + t_off);
        Ok(())
    }

    /// Bulk fast path for a round-robin hammer: `n` single activation
    /// episodes cycling over logical `rows`, the first on
    /// `rows[start % rows.len()]`. State-identical to `n` consecutive
    /// `hammer_direct(bank, rows[i], 1, t_on, t_off)` calls with `i`
    /// advancing cyclically: every aggressor is sensed and restored on
    /// each of its episodes, at that episode's time. The model applies
    /// the episodes it can prove quiet in bulk
    /// ([`DisturbanceModel::hammer_quiet_prefix`]); every other one
    /// runs the exact single-episode path. Records one
    /// `dram.hammer.ns` sample per call.
    ///
    /// # Errors
    ///
    /// Range errors for bad addresses; every row is checked before any
    /// episode runs.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty and `n > 0`.
    pub fn hammer_round_robin_direct(
        &mut self,
        bank: BankId,
        rows: &[RowAddr],
        start: usize,
        n: u64,
        t_on: Picos,
        t_off: Picos,
    ) -> Result<(), DramError> {
        let _t = rh_obs::timer!(names::DRAM_HAMMER_NS);
        self.check_bank(bank)?;
        for &row in rows {
            self.check_row(row)?;
        }
        if n == 0 {
            return Ok(());
        }
        assert!(!rows.is_empty(), "a round-robin hammer needs at least one row");
        let phys: Vec<RowAddr> =
            rows.iter().map(|&r| self.cfg.mapping.logical_to_physical(r)).collect();
        rh_obs::counter(names::DRAM_HAMMER_EPISODES, n);
        let k = phys.len() as u64;
        let start = (start as u64 % k) as usize;
        let mut run = RoundRobin { bank, rows: &phys, start, n, t_on, t_off, now: self.now };
        while run.n > 0 {
            let quiet = self.model.hammer_quiet_prefix(&run).min(run.n);
            self.now = run.at(quiet);
            let mut done = quiet;
            if quiet < run.n {
                let row = run.row(quiet);
                self.sense_and_restore(bank, row);
                self.model.on_hammer(bank, row, 1, t_on, t_off);
                done += 1;
                self.now = run.at(done);
            }
            run.start = ((run.start as u64 + done % k) % k) as usize;
            run.n -= done;
            run.now = self.now;
        }
        Ok(())
    }

    /// Bulk fast path for a double-sided hammer pair: accounts `count`
    /// *alternating* activation episodes of `left` and `right` (the
    /// order `Program::double_sided_hammer` issues them). Unlike two
    /// back-to-back [`hammer_direct`] calls, this keeps the episode
    /// accounting of the interleaved program: each aggressor is
    /// restored on every episode of the other, so the distance-2
    /// disturbance the aggressors deposit on *each other* never
    /// accumulates across the whole burst — only the rows between and
    /// around the pair integrate the full dose.
    ///
    /// [`hammer_direct`]: DramModule::hammer_direct
    ///
    /// # Errors
    ///
    /// Range errors for bad addresses.
    pub fn hammer_pair_direct(
        &mut self,
        bank: BankId,
        left: RowAddr,
        right: RowAddr,
        count: u64,
        t_on: Picos,
        t_off: Picos,
    ) -> Result<(), DramError> {
        let _t = rh_obs::timer!(names::DRAM_HAMMER_NS);
        self.check_bank(bank)?;
        self.check_row(left)?;
        self.check_row(right)?;
        let phys_l = self.cfg.mapping.logical_to_physical(left);
        let phys_r = self.cfg.mapping.logical_to_physical(right);
        rh_obs::counter(names::DRAM_HAMMER_EPISODES, count.saturating_mul(2));
        // The first episode senses and restores both aggressors, just
        // as the program path's opening ACTs do.
        self.sense_and_restore(bank, phys_l);
        self.sense_and_restore(bank, phys_r);
        self.model.on_hammer(bank, phys_l, count, t_on, t_off);
        self.model.on_hammer(bank, phys_r, count, t_on, t_off);
        self.now += count * 2 * (t_on + t_off);
        // The interleaved program restores each aggressor on every
        // episode, so their mutual distance-2 disturbance never reaches
        // the materialization threshold. Clear it *without* sensing: a
        // sense here would materialize the whole burst's worth at once,
        // which the alternating path never exhibits.
        let now = self.now;
        self.model.on_restore(bank, phys_l, now);
        self.model.on_restore(bank, phys_r, now);
        Ok(())
    }

    /// Refreshes one *physical* row, as a targeted victim refresh from
    /// a RowHammer defense would: the cells are sensed (any disturbance
    /// already past threshold materializes, exactly like a real refresh
    /// locking in an already-flipped value) and restored to full
    /// charge, clearing accumulated disturbance.
    ///
    /// # Errors
    ///
    /// Range errors for bad addresses.
    pub fn refresh_row_physical(&mut self, bank: BankId, phys: RowAddr) -> Result<(), DramError> {
        self.check_bank(bank)?;
        self.check_row(phys)?;
        self.sense_and_restore(bank, phys);
        Ok(())
    }

    /// Drops all stored rows (between tests), leaving disturbance state
    /// to the model's own bookkeeping.
    pub fn clear_storage(&mut self) {
        self.storage.clear();
    }

    /// Number of rows currently materialized in storage.
    pub fn rows_stored(&self) -> usize {
        self.storage.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::NS;

    fn module() -> DramModule {
        DramModule::new(ModuleConfig::ddr4(Manufacturer::D))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = module();
        let data = vec![0x5Au8; m.row_bytes()];
        m.write_row_direct(BankId(2), RowAddr(100), &data).unwrap();
        assert_eq!(m.read_row_direct(BankId(2), RowAddr(100)).unwrap(), data);
    }

    #[test]
    fn wrong_length_write_rejected() {
        let mut m = module();
        let e = m.write_row_direct(BankId(0), RowAddr(0), &[1, 2, 3]).unwrap_err();
        assert!(matches!(e, DramError::BadRowLength { got: 3, .. }));
    }

    #[test]
    fn read_uninitialized_row_fails() {
        let mut m = module();
        assert!(matches!(
            m.read_row_direct(BankId(0), RowAddr(9)),
            Err(DramError::UninitializedRow { .. })
        ));
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut m = module();
        let rows = m.geometry().rows_per_bank;
        assert!(m.write_row_direct(BankId(99), RowAddr(0), &vec![0; m.row_bytes()]).is_err());
        assert!(m
            .write_row_direct(BankId(0), RowAddr(rows), &vec![0u8; m.row_bytes()])
            .is_err());
    }

    #[test]
    fn command_interface_act_wr_rd_pre() {
        let mut m = module();
        let t = m.config().timing;
        let b = BankId(0);
        let mut at = 0;
        m.issue(&TimedCommand { at, cmd: Command::Act { bank: b, row: RowAddr(5) } }).unwrap();
        at += t.t_rcd;
        m.issue(&TimedCommand {
            at,
            cmd: Command::Wr { bank: b, column: 3, data: [9, 8, 7, 6, 5, 4, 3, 2] },
        })
        .unwrap();
        at += t.t_ccd;
        let beat = m
            .issue(&TimedCommand { at, cmd: Command::Rd { bank: b, column: 3 } })
            .unwrap()
            .unwrap();
        assert_eq!(beat, [9, 8, 7, 6, 5, 4, 3, 2]);
        at += t.t_ras;
        m.issue(&TimedCommand { at, cmd: Command::Pre { bank: b } }).unwrap();
    }

    #[test]
    fn timing_violation_surfaces_through_issue() {
        let mut m = module();
        m.issue(&TimedCommand { at: 0, cmd: Command::Act { bank: BankId(0), row: RowAddr(1) } })
            .unwrap();
        let e = m
            .issue(&TimedCommand { at: 5 * NS, cmd: Command::Pre { bank: BankId(0) } })
            .unwrap_err();
        assert!(matches!(e, DramError::TimingViolation { parameter: "tRAS", .. }));
    }

    #[test]
    fn mapping_is_transparent_to_users() {
        // Mfr. A scrambles rows; write/read through logical addresses
        // must still round-trip.
        let mut m = DramModule::new(ModuleConfig::ddr4(Manufacturer::A));
        let data = vec![0x77u8; m.row_bytes()];
        m.write_row_direct(BankId(1), RowAddr(8), &data).unwrap();
        assert_eq!(m.read_row_direct(BankId(1), RowAddr(8)).unwrap(), data);
        // But the physical location differs from the logical address.
        assert!(m.peek_row(BankId(1), RowAddr(8)).is_ok());
    }

    #[test]
    fn hammer_direct_advances_time() {
        let mut m = module();
        let t = m.config().timing;
        m.hammer_direct(BankId(0), RowAddr(4), 1000, t.t_ras, t.t_rp).unwrap();
        assert_eq!(m.now(), 1000 * t.t_rc());
    }

    #[test]
    fn clear_storage_resets_rows() {
        let mut m = module();
        m.write_row_direct(BankId(0), RowAddr(1), &vec![1u8; m.row_bytes()]).unwrap();
        assert_eq!(m.rows_stored(), 1);
        m.clear_storage();
        assert_eq!(m.rows_stored(), 0);
    }

    #[test]
    fn preall_closes_all_open_banks() {
        let mut m = module();
        let t = m.config().timing;
        m.issue(&TimedCommand { at: 0, cmd: Command::Act { bank: BankId(0), row: RowAddr(1) } })
            .unwrap();
        m.issue(&TimedCommand { at: 100, cmd: Command::Act { bank: BankId(1), row: RowAddr(2) } })
            .unwrap();
        m.issue(&TimedCommand { at: 100 + t.t_ras, cmd: Command::PreAll }).unwrap();
        assert!(m.bank(BankId(0)).open_row().is_none());
        assert!(m.bank(BankId(1)).open_row().is_none());
    }

    /// What [`Recording`] was asked to do.
    #[derive(Debug, Default, PartialEq)]
    struct Log {
        sensed: u32,
        restores: Vec<(RowAddr, Picos)>,
        /// Every sensing, restore and hammer, in order.
        calls: Vec<Call>,
    }

    #[derive(Debug, PartialEq)]
    enum Call {
        Sense(RowAddr, Picos),
        Restore(RowAddr, Picos),
        Hammer(RowAddr, u64, Picos, Picos),
    }

    /// Records every sensing, restore and hammer it is asked for.
    /// With `quiet == 0` every sensing flips bit 0 of byte 0. Otherwise
    /// it never flips, and claims up to `quiet` episodes per
    /// `hammer_quiet_prefix` call, logging each as the exact calls
    /// would.
    #[derive(Default)]
    struct Recording {
        log: std::sync::Arc<std::sync::Mutex<Log>>,
        quiet: u64,
    }

    impl DisturbanceModel for Recording {
        fn on_hammer(&mut self, _: BankId, row: RowAddr, count: u64, t_on: Picos, t_off: Picos) {
            self.log.lock().unwrap().calls.push(Call::Hammer(row, count, t_on, t_off));
        }

        fn flips_on_activate(
            &mut self,
            _: BankId,
            row: RowAddr,
            _: &[u8],
            now: Picos,
        ) -> Vec<BitFlip> {
            let mut log = self.log.lock().unwrap();
            log.sensed += 1;
            log.calls.push(Call::Sense(row, now));
            // Would corrupt the row if the restore sensed it.
            if self.quiet == 0 {
                vec![BitFlip { byte: 0, bit: 0 }]
            } else {
                Vec::new()
            }
        }

        fn on_restore(&mut self, _: BankId, row: RowAddr, now: Picos) {
            let mut log = self.log.lock().unwrap();
            log.restores.push((row, now));
            log.calls.push(Call::Restore(row, now));
        }

        fn set_temperature(&mut self, _: f64) {}

        fn temperature(&self) -> f64 {
            0.0
        }

        fn hammer_quiet_prefix(&mut self, run: &RoundRobin<'_>) -> u64 {
            let quiet = self.quiet.min(run.n);
            let mut log = self.log.lock().unwrap();
            for j in 0..quiet {
                let (row, at) = (run.row(j), run.at(j));
                log.sensed += 1;
                log.calls.push(Call::Sense(row, at));
                log.restores.push((row, at));
                log.calls.push(Call::Restore(row, at));
                log.calls.push(Call::Hammer(row, 1, run.t_on, run.t_off));
            }
            quiet
        }
    }

    /// A module whose model logs into the returned handle (`None`
    /// installs [`NullDisturbance`]), with `rows` written and the clock
    /// moved off zero.
    fn logged_module(
        quiet: Option<u64>,
        rows: &[RowAddr],
    ) -> (DramModule, std::sync::Arc<std::sync::Mutex<Log>>) {
        let model = Recording { quiet: quiet.unwrap_or(0), ..Recording::default() };
        let log = std::sync::Arc::clone(&model.log);
        // Mfr. A scrambles rows: the module must map every one.
        let cfg = ModuleConfig::ddr4(Manufacturer::A);
        let mut m = match quiet {
            Some(_) => DramModule::with_model(cfg, Box::new(model)),
            None => DramModule::new(cfg),
        };
        let t = m.config().timing;
        for (i, &row) in rows.iter().enumerate() {
            m.write_row_direct(BankId(1), row, &vec![i as u8; m.row_bytes()]).unwrap();
        }
        m.hammer_direct(BankId(1), RowAddr(300), 7, t.t_ras, t.t_rp).unwrap();
        (m, log)
    }

    #[test]
    fn round_robin_equals_single_hammers() {
        let b = BankId(1);
        let last = ModuleConfig::ddr4(Manufacturer::A).geometry.rows_per_bank - 1;
        // Bank edges, a repeated row, and rows out of order.
        let rows = [RowAddr(10), RowAddr(0), RowAddr(last), RowAddr(12), RowAddr(10)];
        let (t_on, t_off) = (34_500, 16_500);
        for quiet in [None, Some(0), Some(1), Some(3), Some(u64::MAX)] {
            for start in [0usize, 2, 4, 7] {
                for n in [0u64, 1, 4, 5, 13] {
                    let (mut bulk, bulk_log) = logged_module(quiet, &rows);
                    let (mut single, single_log) = logged_module(quiet, &rows);
                    bulk.hammer_round_robin_direct(b, &rows, start, n, t_on, t_off).unwrap();
                    for j in 0..n as usize {
                        let row = rows[(start + j) % rows.len()];
                        single.hammer_direct(b, row, 1, t_on, t_off).unwrap();
                    }
                    let case = format!("quiet {quiet:?}, start {start}, n {n}");
                    assert_eq!(*bulk_log.lock().unwrap(), *single_log.lock().unwrap(), "{case}");
                    assert_eq!(bulk.now(), single.now(), "{case}");
                    for &row in &rows {
                        assert_eq!(bulk.peek_row(b, row), single.peek_row(b, row), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_checks_every_row_before_hammering() {
        let (mut m, log) = logged_module(Some(0), &[RowAddr(5)]);
        let (now, calls) = (m.now(), log.lock().unwrap().calls.len());
        let rows = m.geometry().rows_per_bank;
        let e = m.hammer_round_robin_direct(BankId(1), &[RowAddr(5), RowAddr(rows)], 0, 4, 1, 1);
        assert!(matches!(e, Err(DramError::RowOutOfRange { .. })));
        assert_eq!(m.now(), now);
        assert_eq!(log.lock().unwrap().calls.len(), calls);
    }

    #[test]
    fn restore_row_direct_restores_without_sensing() {
        let model = Recording::default();
        let log = std::sync::Arc::clone(&model.log);
        // Mfr. A scrambles rows, so the physical address differs.
        let mut m = DramModule::with_model(ModuleConfig::ddr4(Manufacturer::A), Box::new(model));
        let (b, row) = (BankId(0), RowAddr(8));
        let phys = m.config().mapping.logical_to_physical(row);
        assert_ne!(phys, row);
        let data = vec![0x3Cu8; m.row_bytes()];
        m.write_row_direct(b, row, &data).unwrap();
        let t = m.config().timing;
        m.hammer_direct(b, RowAddr(100), 10, t.t_ras, t.t_rp).unwrap();
        let now = m.now();
        log.lock().unwrap().restores.clear();
        let sensed = log.lock().unwrap().sensed;

        m.restore_row_direct(b, row).unwrap();
        assert_eq!(m.peek_row(b, row).unwrap(), &data[..], "stored bytes must not change");
        assert_eq!(m.now(), now, "a restore takes no time");
        let log = log.lock().unwrap();
        assert_eq!(log.sensed, sensed, "flips_on_activate must not run");
        assert_eq!(log.restores, vec![(phys, now)], "one restore of the physical row at now");
    }

    #[test]
    fn restore_row_direct_rejects_unwritten_and_out_of_range_rows() {
        let mut m = module();
        let rows = m.geometry().rows_per_bank;
        assert!(matches!(
            m.restore_row_direct(BankId(0), RowAddr(9)),
            Err(DramError::UninitializedRow { .. })
        ));
        assert!(matches!(
            m.restore_row_direct(BankId(0), RowAddr(rows)),
            Err(DramError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn temperature_plumbs_to_model() {
        let mut m = module();
        m.set_temperature(85.0);
        assert_eq!(m.model().temperature(), 85.0);
    }
}
