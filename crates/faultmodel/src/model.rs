//! The RowHammer disturbance model: plugs into
//! [`rh_dram::DramModule`] and turns accumulated aggressor activity
//! into bit flips according to the calibrated per-cell profiles.
//!
//! Activations are evaluated by the columnar kernel in
//! [`crate::kernel`] by default; the original per-cell scalar loop is
//! retained as [`EvalMode::ScalarReference`] and the two are held
//! bit-identical by the `equivalence` test suite.

use crate::cell::{derive_row_cells_with, row_floor, CellVulnerability};
use crate::disturb::{self, DISTANCE2_WEIGHT};
use crate::kernel::CellTable;
use crate::lru::LruCache;
use crate::profile::MfrProfile;
use crate::retention::{self, derive_retention_cells, RetentionCell};
use crate::variation;
use rh_dram::{
    BankId, BitFlip, DisturbanceModel, Manufacturer, Picos, RoundRobin, RowAddr, RowView,
};
use rh_obs::names;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Process-global bound on shared cell tables, the fault model's one
/// derivation cache. A table costs 40 bytes per cell, ~15 KiB for the
/// calibrated 384 cells a row, so the cache holds at most ~120 MiB. A
/// default-scale `repro all` derives ~6,500 distinct rows; holding them
/// all lets every later target and worker reuse them.
const CELLS_CACHE_CAP: usize = 8192;

/// Which evaluation path [`RowHammerModel::flips_on_activate`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// The columnar kernel: the row's memoized cell table, cut at the
    /// dose by its sort key, with noise drawn only inside the noise
    /// band. The default.
    Columnar,
    /// The original per-cell scalar loop over a fresh derivation of
    /// the row, kept as the equivalence oracle for the columnar path.
    ScalarReference,
}

/// Cache key of a row's cell table: `(derivation salt, bank, physical
/// row)`.
type RowKey = (u64, u32, u32);

/// A row's cell table, or the build of it under way: the first miss
/// inserts it empty and fills it, and later lookups wait for that fill.
type CellEntry = Arc<OnceLock<Arc<CellTable>>>;

/// Cell tables, shared by every model instance in the process. Sweeps
/// and benches construct a fresh [`RowHammerModel`] per repetition, and
/// every derivation is a pure function of `(profile, seed, geometry,
/// bank, row)`; the salt in each key folds all of those but the
/// coordinates, so distinct modules never alias.
static CELLS: OnceLock<Mutex<LruCache<RowKey, CellEntry>>> = OnceLock::new();

/// The calibrated RowHammer fault model of one DRAM module.
///
/// Install it into a module with [`rh_dram::DramModule::with_model`].
/// The model keys all derived state off a `module_seed`, so two models
/// with the same `(manufacturer, seed)` are *the same physical module*.
pub struct RowHammerModel {
    profile: MfrProfile,
    module_seed: u64,
    temperature: f64,
    row_bytes: usize,
    subarray_rows: u32,
    /// Rows per bank, for clamping victim accumulation; `u32::MAX`
    /// (i.e., unclamped above) until the hosting module calls
    /// [`DisturbanceModel::configure_geometry`].
    rows_per_bank: u32,
    mode: EvalMode,
    /// Key salt of the global derivation caches: folds profile
    /// fingerprint, module seed, and geometry.
    derivation_salt: u64,
    /// Everything the model keeps per (bank, physical row).
    rows: HashMap<(u32, u32), RowState>,
    /// Memo of [`variation::column_weight`] for cell derivation,
    /// indexed `chip * columns + column`; NaN marks an entry not yet
    /// computed. Empty until the first derivation, and filled lazily:
    /// most models derive too few rows to repay a full table.
    column_weights: Vec<f64>,
    /// Incremented on every restore; salts per-trial threshold noise.
    trial_nonce: u64,
    /// Memoized `(t_on, t_off) -> (g_on, g_off)` of the last timing
    /// pair: hammer bursts repeat one timing, and `g_off` divides.
    timing_memo: Option<(Picos, Picos, f64, f64)>,
    /// The last round-robin window (see [`QuietWindow`]).
    window: Option<QuietWindow>,
}

/// The state of one (bank, physical row). A row without an entry is
/// in the default state: no dose, never restored, nothing memoized.
#[derive(Debug, Clone, Copy, Default)]
struct RowState {
    /// Disturbance accumulated since the last restore, in hammer units.
    /// 0.0 is "no dose": `0.0 + units == units` exactly, and no dose is
    /// negative.
    acc: f64,
    /// When the row was last restored: its retention clock.
    last_restore: Option<Picos>,
    /// Memo of [`row_floor`] (Columnar mode). Independent of
    /// `row_bytes` and temperature, so nothing invalidates it.
    floor: Option<f64>,
    /// Memo of the row's weakest retention time at the reference
    /// temperature ([`retention::weakest_ref`]); also independent of
    /// `row_bytes` and temperature.
    weakest: Option<f64>,
}

impl RowState {
    /// Time the row has sat without a restore, as of `now`.
    fn idle(&self, now: Picos) -> Picos {
        now.saturating_sub(self.last_restore.unwrap_or(now))
    }

    /// The row's weakest retention time at the reference temperature,
    /// taken from its retention `cells` on first use.
    fn weakest(&mut self, cells: impl FnOnce() -> Vec<RetentionCell>) -> f64 {
        *self.weakest.get_or_insert_with(|| retention::weakest_ref(&cells()))
    }
}

/// The layout of a round-robin run's window (every row within ±2 of
/// an aggressor), kept across [`DisturbanceModel::hammer_quiet_prefix`]
/// calls while the bank and the aggressors stay the same: a defense
/// simulation replays the same run thousands of times.
struct QuietWindow {
    bank: u32,
    aggressors: Vec<RowAddr>,
    /// Rows in the window, ascending; slot `i` holds `touched[i]`.
    touched: Vec<u32>,
    /// Per aggressor position, the slots its episode touches.
    episodes: Vec<EpisodeSlots>,
    /// Per slot: a working copy of the row's state, loaded at the start
    /// of each call and written back at its end.
    rows: Vec<RowState>,
}

/// The window slots of one aggressor's episode: its own, then its
/// distance-1 and distance-2 neighbours' (`None` past a bank edge).
#[derive(Clone, Copy)]
struct EpisodeSlots {
    me: usize,
    d1: [Option<usize>; 2],
    d2: [Option<usize>; 2],
}

impl QuietWindow {
    fn new(run: &RoundRobin<'_>, rows_per_bank: u32) -> Self {
        let rows = i64::from(rows_per_bank);
        // The same clamp as `on_hammer`.
        let near = |row: RowAddr, d: i64| {
            let v = i64::from(row.0) + d;
            (v >= 0 && v < rows).then_some(v as u32)
        };
        let mut touched: Vec<u32> = run
            .rows
            .iter()
            .flat_map(|&r| [0, -1, 1, -2, 2].into_iter().filter_map(move |d| near(r, d)))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        // Every row asked for is in `touched`, so this is its index.
        let slot = |row: u32| touched.partition_point(|&t| t < row);
        let episodes = run
            .rows
            .iter()
            .map(|&r| {
                let side = |d: i64| [near(r, -d).map(slot), near(r, d).map(slot)];
                EpisodeSlots { me: slot(r.0), d1: side(1), d2: side(2) }
            })
            .collect();
        let rows = vec![RowState::default(); touched.len()];
        Self { bank: run.bank.0, aggressors: run.rows.to_vec(), touched, episodes, rows }
    }

    fn fits(&self, run: &RoundRobin<'_>) -> bool {
        self.bank == run.bank.0 && self.aggressors == run.rows
    }
}

impl std::fmt::Debug for RowHammerModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowHammerModel")
            .field("manufacturer", &self.profile.manufacturer)
            .field("module_seed", &self.module_seed)
            .field("temperature", &self.temperature)
            .field("mode", &self.mode)
            .field("rows_accumulating", &self.rows.values().filter(|s| s.acc != 0.0).count())
            .finish()
    }
}

impl RowHammerModel {
    /// Creates the model for a module of `mfr` with identity
    /// `module_seed`, using the calibrated profile.
    pub fn new(mfr: Manufacturer, module_seed: u64) -> Self {
        Self::with_profile(MfrProfile::for_manufacturer(mfr), module_seed)
    }

    /// Creates the model with an explicit (possibly ablated) profile.
    pub fn with_profile(profile: MfrProfile, module_seed: u64) -> Self {
        let row_bytes = 8192;
        let subarray_rows = 512;
        Self {
            profile,
            module_seed,
            temperature: 50.0,
            row_bytes,
            subarray_rows,
            rows_per_bank: u32::MAX,
            mode: EvalMode::Columnar,
            derivation_salt: Self::salt(&profile, module_seed, row_bytes, subarray_rows),
            rows: HashMap::new(),
            column_weights: Vec::new(),
            trial_nonce: 0,
            timing_memo: None,
            window: None,
        }
    }

    fn salt(profile: &MfrProfile, module_seed: u64, row_bytes: usize, subarray_rows: u32) -> u64 {
        let mut h = profile.fingerprint();
        for part in [module_seed, row_bytes as u64, subarray_rows as u64] {
            h = crate::rng::mix(h ^ part);
        }
        h
    }

    /// The profile in use.
    pub fn profile(&self) -> &MfrProfile {
        &self.profile
    }

    /// The module identity seed.
    pub fn module_seed(&self) -> u64 {
        self.module_seed
    }

    /// The active evaluation path.
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// Selects the evaluation path (columnar by default; the scalar
    /// reference exists for equivalence testing and debugging).
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
    }

    /// Builder-style [`set_eval_mode`](Self::set_eval_mode).
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Oracle access to the vulnerable cells of a physical row: its
    /// shared cell table ([`CellTable::cells`] lists them). A lookup
    /// the cache serves counts one `faultmodel.cells.global_hit`.
    ///
    /// Characterization code must not use this (it reconstructs
    /// vulnerability by hammering); it exists for tests, examples, and
    /// defense studies that assume a profiling step already ran.
    pub fn row_cells(&mut self, bank: BankId, row: RowAddr) -> Arc<CellTable> {
        let (table, built) = self.table(bank, row);
        if !built {
            rh_obs::counter!(names::FAULTMODEL_CELLS_GLOBAL_HIT, 1);
        }
        table
    }

    /// The row's shared cell table, and whether this call built it.
    ///
    /// A miss inserts a pending entry (counting one
    /// `faultmodel.cache.evict` if that evicts), then derives and sorts
    /// the row outside the lock, counting one `faultmodel.row.derive`
    /// and one `faultmodel.surface.build`. A concurrent miss on the same
    /// row waits for that one build rather than deriving a copy, so
    /// both counters equal the rows derived whatever the interleaving.
    /// A hit records nothing.
    fn table(&mut self, bank: BankId, row: RowAddr) -> (Arc<CellTable>, bool) {
        let key = (self.derivation_salt, bank.0, row.0);
        let entry = {
            let mut cache = CELLS
                .get_or_init(|| Mutex::new(LruCache::new(CELLS_CACHE_CAP)))
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match cache.get(&key) {
                Some(entry) => Arc::clone(entry),
                None => {
                    let entry = CellEntry::default();
                    let evicted = cache.evictions();
                    cache.insert(key, Arc::clone(&entry));
                    if cache.evictions() > evicted {
                        rh_obs::counter!(names::FAULTMODEL_CACHE_EVICT, 1);
                    }
                    entry
                }
            }
        };
        let mut built = false;
        let table = entry.get_or_init(|| {
            built = true;
            rh_obs::counter!(names::FAULTMODEL_ROW_DERIVE, 1);
            rh_obs::counter!(names::FAULTMODEL_SURFACE_BUILD, 1);
            let cells = self.derive(bank, row);
            Arc::new(CellTable::new(&self.profile, self.module_seed, cells))
        });
        (Arc::clone(table), built)
    }

    /// Derives the row's cells, with the model's column-weight memo.
    fn derive(&mut self, bank: BankId, row: RowAddr) -> Vec<CellVulnerability> {
        let (profile, seed) = (&self.profile, self.module_seed);
        let (row_bytes, subarray_rows) = (self.row_bytes, self.subarray_rows);
        let columns = row_bytes / 8;
        let memo = &mut self.column_weights;
        if memo.is_empty() {
            memo.resize(8 * columns, f64::NAN);
        }
        let weight = |chip: u8, column: u32| {
            let w = &mut memo[chip as usize * columns + column as usize];
            if w.is_nan() {
                *w = variation::column_weight(profile, seed, chip, column);
            }
            *w
        };
        derive_row_cells_with(profile, seed, bank, row, row_bytes, subarray_rows, weight)
    }

    /// Accumulated disturbance (hammer units) on a physical row.
    pub fn accumulated(&self, bank: BankId, row: RowAddr) -> f64 {
        self.rows.get(&(bank.0, row.0)).map_or(0.0, |s| s.acc)
    }

    /// Clears all accumulated disturbance (e.g., between tests).
    pub fn reset_disturbance(&mut self) {
        for s in self.rows.values_mut() {
            s.acc = 0.0;
        }
    }

    /// Oracle access to the retention-weak cells of a physical row.
    pub fn retention_cells(&self, bank: BankId, row: RowAddr) -> Vec<RetentionCell> {
        derive_retention_cells(&self.profile, self.module_seed, bank, row, self.row_bytes)
    }

    /// Distance-1 hammer units of `count` episodes with the given
    /// timing.
    fn units(&mut self, count: u64, t_on: Picos, t_off: Picos) -> f64 {
        let (gon, goff) = match self.timing_memo {
            Some((on, off, gon, goff)) if on == t_on && off == t_off => (gon, goff),
            _ => {
                let gon = disturb::g_on(&self.profile, t_on);
                let goff = disturb::g_off(&self.profile, t_off);
                self.timing_memo = Some((t_on, t_off, gon, goff));
                (gon, goff)
            }
        };
        // Same association order as `disturb::units_distance1`, so the
        // memo changes nothing about the accumulated values.
        0.5 * count as f64 * gon * goff
    }
}

impl DisturbanceModel for RowHammerModel {
    fn configure_geometry(&mut self, rows_per_bank: u32, row_bytes: usize) {
        self.rows_per_bank = rows_per_bank;
        self.window = None;
        if row_bytes != self.row_bytes {
            self.row_bytes = row_bytes;
            self.derivation_salt =
                Self::salt(&self.profile, self.module_seed, row_bytes, self.subarray_rows);
            self.column_weights.clear();
        }
    }

    fn on_hammer(&mut self, bank: BankId, row: RowAddr, count: u64, t_on: Picos, t_off: Picos) {
        let units = self.units(count, t_on, t_off);
        let rows = self.rows_per_bank as i64;
        // Distance-1 victims, clamped to rows that exist: dose on
        // nonexistent rows could never flip (reads reject the address)
        // but would grow the accumulator map forever.
        for d in [-1i64, 1] {
            let v = row.0 as i64 + d;
            if v >= 0 && v < rows {
                self.rows.entry((bank.0, v as u32)).or_default().acc += units;
            }
        }
        // Weak distance-2 coupling.
        for d in [-2i64, 2] {
            let v = row.0 as i64 + d;
            if v >= 0 && v < rows {
                self.rows.entry((bank.0, v as u32)).or_default().acc += units * DISTANCE2_WEIGHT;
            }
        }
    }

    fn flips_on_activate(
        &mut self,
        bank: BankId,
        row: RowAddr,
        data: &RowView<'_>,
        now: Picos,
    ) -> Vec<BitFlip> {
        let temperature = self.temperature;
        let (profile, seed, mode) = (self.profile, self.module_seed, self.mode);
        let (row_bytes, subarray_rows) = (self.row_bytes, self.subarray_rows);
        let state = self.rows.entry((bank.0, row.0)).or_default();
        let (dose, idle) = (state.acc, state.idle(now));
        // Exactly the idle times above the row's shortest retention time
        // at `temperature` leak a cell (`RetentionCell::leaked` is the
        // strict `>` of the same comparison): multiplying by the
        // positive temperature factor preserves order, rounding
        // included, so the product is bit for bit the minimum of the
        // cells' `retention_at`.
        let leaks = idle > 0
            && idle as f64
                > state.weakest(|| derive_retention_cells(&profile, seed, bank, row, row_bytes))
                    * retention::temperature_factor(temperature);
        // Below the row's floor no dose can flip any cell, at any
        // temperature or trial nonce.
        let gated = mode == EvalMode::Columnar
            && dose >= 1.0
            && dose
                < *state
                    .floor
                    .get_or_insert_with(|| row_floor(&profile, seed, bank, row, subarray_rows));
        let mut flips = Vec::new();
        // Retention leakage: cells that sat unrefreshed past their
        // (temperature-accelerated) retention time, derived only when
        // one of them leaks.
        if leaks {
            for c in self.retention_cells(bank, row) {
                if !c.leaked(idle, temperature) {
                    continue;
                }
                // Leakage moves the cell toward its discharged value.
                if data.bit(c.byte, c.bit) != c.anti_cell {
                    flips.push(BitFlip { byte: c.byte, bit: c.bit });
                }
            }
        }
        if dose >= 1.0 {
            let nonce = self.trial_nonce;
            match mode {
                EvalMode::Columnar => {
                    if gated {
                        // Below the floor is below every cell's gated
                        // threshold, so the kernel would early-out too:
                        // skip deriving the row.
                        rh_obs::counter!(names::FAULTMODEL_EVAL_EARLY_OUT, 1);
                        rh_obs::counter!(names::FAULTMODEL_EVAL_GATED, 1);
                    } else {
                        let (table, _) = self.table(bank, row);
                        if !table.evaluate(nonce, temperature, dose, data, &mut flips) {
                            rh_obs::counter!(names::FAULTMODEL_EVAL_EARLY_OUT, 1);
                        }
                    }
                }
                EvalMode::ScalarReference => {
                    for c in &self.derive(bank, row) {
                        let Some(h) = c.threshold_at(temperature) else { continue };
                        if !c.susceptible(data.bit(c.byte, c.bit)) {
                            continue;
                        }
                        if dose >= h * c.trial_noise(&profile, seed, nonce) {
                            flips.push(BitFlip { byte: c.byte, bit: c.bit });
                        }
                    }
                }
            }
        }
        // A physical cell flips at most once per sensing: a retention
        // leak and a hammer flip at the same (byte, bit) must not emit
        // twice, or the module's XOR materialization cancels them back
        // to the stored value. Canonical order also makes the two
        // evaluation paths directly comparable.
        flips.sort_unstable_by_key(|f| (f.byte, f.bit));
        flips.dedup();
        flips
    }

    fn on_restore(&mut self, bank: BankId, row: RowAddr, now: Picos) {
        let state = self.rows.entry((bank.0, row.0)).or_default();
        state.acc = 0.0;
        state.last_restore = Some(now);
        self.trial_nonce = self.trial_nonce.wrapping_add(1);
    }

    /// Runs the episodes on a local copy of the state of every row
    /// within ±2 of an aggressor, loaded once and written back once. An
    /// episode is quiet when its sensing reaches neither branch of
    /// [`flips_on_activate`](Self::flips_on_activate): the aggressor's
    /// dose is below 1 unit, and it has sat idle for no time or for no
    /// longer than its shortest retention time. A quiet episode then
    /// does exactly what `on_restore` + `on_hammer(.., 1, ..)` do:
    /// clear the aggressor's dose, stamp its restore time, and add the
    /// same one-episode units, one `+=` at a time, to its neighbours'
    /// doses.
    fn hammer_quiet_prefix(&mut self, run: &RoundRobin<'_>) -> u64 {
        let units = self.units(1, run.t_on, run.t_off);
        let units2 = units * DISTANCE2_WEIGHT;
        let factor = retention::temperature_factor(self.temperature);
        let (profile, seed, row_bytes) = (self.profile, self.module_seed, self.row_bytes);
        let mut w = match self.window.take() {
            Some(w) if w.fits(run) => w,
            _ => QuietWindow::new(run, self.rows_per_bank),
        };
        let bank = run.bank.0;
        for (state, &row) in w.rows.iter_mut().zip(&w.touched) {
            *state = self.rows.get(&(bank, row)).copied().unwrap_or_default();
        }
        let k = run.rows.len();
        let mut pos = run.start % k;
        let mut applied = 0;
        while applied < run.n {
            let EpisodeSlots { me, d1, d2 } = w.episodes[pos];
            let at = run.at(applied);
            let state = &mut w.rows[me];
            if state.acc >= 1.0 {
                break;
            }
            let idle = state.idle(at);
            let cells = || derive_retention_cells(&profile, seed, run.bank, run.rows[pos], row_bytes);
            if idle > 0 && idle as f64 > state.weakest(cells) * factor {
                break;
            }
            state.acc = 0.0;
            state.last_restore = Some(at);
            for s in d1.into_iter().flatten() {
                w.rows[s].acc += units;
            }
            for s in d2.into_iter().flatten() {
                w.rows[s].acc += units2;
            }
            applied += 1;
            pos = if pos + 1 == k { 0 } else { pos + 1 };
        }
        if applied > 0 {
            for (state, &row) in w.rows.iter().zip(&w.touched) {
                self.rows.insert((bank, row), *state);
            }
            self.trial_nonce = self.trial_nonce.wrapping_add(applied);
        }
        self.window = Some(w);
        applied
    }

    fn set_temperature(&mut self, celsius: f64) {
        self.temperature = celsius;
    }

    fn temperature(&self) -> f64 {
        self.temperature
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RowHammerModel {
        let mut m = RowHammerModel::new(Manufacturer::A, 7);
        m.set_temperature(75.0);
        m
    }

    #[test]
    fn hammering_accumulates_on_neighbors() {
        let mut m = model();
        m.on_hammer(BankId(0), RowAddr(100), 1000, 34_500, 16_500);
        assert_eq!(m.accumulated(BankId(0), RowAddr(99)), 500.0);
        assert_eq!(m.accumulated(BankId(0), RowAddr(101)), 500.0);
        let d2 = m.accumulated(BankId(0), RowAddr(102));
        assert!(d2 > 0.0 && d2 < 500.0);
        assert_eq!(m.accumulated(BankId(0), RowAddr(100)), 0.0);
    }

    #[test]
    fn restore_clears_accumulation() {
        let mut m = model();
        m.on_hammer(BankId(0), RowAddr(10), 100, 34_500, 16_500);
        m.on_restore(BankId(0), RowAddr(9), 0);
        assert_eq!(m.accumulated(BankId(0), RowAddr(9)), 0.0);
        assert!(m.accumulated(BankId(0), RowAddr(11)) > 0.0);
    }

    #[test]
    fn no_flips_without_disturbance() {
        let mut m = model();
        let data = vec![0u8; 8192];
        let flips = m.flips_on_activate(BankId(0), RowAddr(5), &RowView::bytes(&data), 0);
        assert!(flips.is_empty());
    }

    #[test]
    fn heavy_double_sided_hammering_flips_bits() {
        let mut m = model();
        // Hammer both neighbors of row 500 very hard.
        m.on_hammer(BankId(0), RowAddr(499), 2_000_000, 34_500, 16_500);
        m.on_hammer(BankId(0), RowAddr(501), 2_000_000, 34_500, 16_500);
        // All-zero data allows anti-cells (62 % for Mfr. A) to flip.
        let data = vec![0u8; 8192];
        let flips = m.flips_on_activate(BankId(0), RowAddr(500), &RowView::bytes(&data), 0);
        assert!(!flips.is_empty(), "2M double-sided hammers must flip something");
    }

    #[test]
    fn flips_respect_stored_data_orientation() {
        let mut m = model();
        m.on_hammer(BankId(0), RowAddr(499), 2_000_000, 34_500, 16_500);
        m.on_hammer(BankId(0), RowAddr(501), 2_000_000, 34_500, 16_500);
        let data = vec![0x00u8; 8192];
        let flips_zero = m.flips_on_activate(BankId(0), RowAddr(500), &RowView::bytes(&data), 0);
        let data = vec![0xFFu8; 8192];
        let flips_ones = m.flips_on_activate(BankId(0), RowAddr(500), &RowView::bytes(&data), 0);
        // Anti-cells flip in the all-zero fill; true-cells in all-ones.
        // The two sets must be disjoint (different cells).
        let set0: std::collections::HashSet<_> =
            flips_zero.iter().map(|f| (f.byte, f.bit)).collect();
        for f in &flips_ones {
            assert!(!set0.contains(&(f.byte, f.bit)));
        }
    }

    #[test]
    fn longer_on_time_flips_more() {
        let count = 150_000;
        let flips_at = |t_on: Picos| -> usize {
            let mut m = model();
            (0..20u32)
                .map(|i| {
                    let v = 500 + 4 * i;
                    m.reset_disturbance();
                    m.on_hammer(BankId(0), RowAddr(v - 1), count, t_on, 16_500);
                    m.on_hammer(BankId(0), RowAddr(v + 1), count, t_on, 16_500);
                    let data = vec![0u8; 8192];
                    m.flips_on_activate(BankId(0), RowAddr(v), &RowView::bytes(&data), 0).len()
                })
                .sum()
        };
        assert!(flips_at(154_500) > flips_at(34_500));
    }

    #[test]
    fn longer_off_time_flips_fewer() {
        let count = 400_000;
        let flips_at = |t_off: Picos| {
            let mut m = model();
            m.on_hammer(BankId(0), RowAddr(499), count, 34_500, t_off);
            m.on_hammer(BankId(0), RowAddr(501), count, 34_500, t_off);
            m.flips_on_activate(BankId(0), RowAddr(500), &RowView::bytes(&vec![0u8; 8192]), 0).len()
        };
        assert!(flips_at(40_500) <= flips_at(16_500));
    }

    #[test]
    fn temperature_gates_flips() {
        // A cell vulnerable only in a window should not flip far outside
        // every window: physically impossible temperatures see fewer
        // (only full-range cells remain).
        let count = 1_000_000;
        let flips_at = |t: f64| {
            let mut m = model();
            m.set_temperature(t);
            m.on_hammer(BankId(0), RowAddr(499), count, 34_500, 16_500);
            m.on_hammer(BankId(0), RowAddr(501), count, 34_500, 16_500);
            m.flips_on_activate(BankId(0), RowAddr(500), &RowView::bytes(&vec![0u8; 8192]), 0).len()
        };
        // At -200 °C only full-range cells are in-window and their
        // parabola is far from inflection: fewer flips than at 75 °C.
        assert!(flips_at(-200.0) < flips_at(75.0));
    }

    #[test]
    fn model_is_deterministic_given_seed() {
        let run = || {
            let mut m = RowHammerModel::new(Manufacturer::C, 123);
            m.set_temperature(60.0);
            m.on_hammer(BankId(1), RowAddr(999), 800_000, 64_500, 16_500);
            m.on_hammer(BankId(1), RowAddr(1001), 800_000, 64_500, 16_500);
            m.flips_on_activate(BankId(1), RowAddr(1000), &RowView::bytes(&vec![0x55u8; 8192]), 0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_are_different_modules() {
        let flips = |seed: u64| {
            let mut m = RowHammerModel::new(Manufacturer::C, seed);
            m.set_temperature(75.0);
            m.on_hammer(BankId(0), RowAddr(499), 600_000, 34_500, 16_500);
            m.on_hammer(BankId(0), RowAddr(501), 600_000, 34_500, 16_500);
            m.flips_on_activate(BankId(0), RowAddr(500), &RowView::bytes(&vec![0u8; 8192]), 0)
        };
        assert_ne!(flips(1), flips(2));
    }

    #[test]
    fn on_hammer_clamps_to_configured_row_count() {
        let mut m = model();
        m.configure_geometry(1024, 8192);
        // Hammering the top row must not accumulate past the last row.
        m.on_hammer(BankId(0), RowAddr(1023), 1000, 34_500, 16_500);
        assert_eq!(m.accumulated(BankId(0), RowAddr(1022)), 500.0);
        assert_eq!(m.accumulated(BankId(0), RowAddr(1024)), 0.0);
        assert_eq!(m.accumulated(BankId(0), RowAddr(1025)), 0.0);
        assert_eq!(dosed_rows(&m), 2, "only in-range victims may accumulate");
        // And the bottom row clamps below zero, as before.
        m.reset_disturbance();
        m.on_hammer(BankId(0), RowAddr(0), 1000, 34_500, 16_500);
        assert_eq!(m.accumulated(BankId(0), RowAddr(1)), 500.0);
        assert_eq!(dosed_rows(&m), 2);
    }

    /// Rows holding a dose.
    fn dosed_rows(m: &RowHammerModel) -> usize {
        m.rows.values().filter(|s| s.acc != 0.0).count()
    }

    #[test]
    fn unconfigured_model_keeps_legacy_unbounded_behavior() {
        // Standalone models (no hosting DramModule) never learn a row
        // count, so the high side stays unclamped.
        let mut m = model();
        m.on_hammer(BankId(0), RowAddr(u32::MAX - 2), 1000, 34_500, 16_500);
        assert!(m.accumulated(BankId(0), RowAddr(u32::MAX - 1)) > 0.0);
    }

    #[test]
    fn retention_hammer_collision_emits_one_flip() {
        // Force the duplicate-emission regression: find a row where a
        // retention-weak cell shares (byte, bit) and orientation with a
        // hammer-vulnerable cell, leak it AND hammer it, and demand a
        // single flip at that position (two would XOR-cancel in the
        // module and silently *unflip* the cell).
        let mut m = model();
        let bank = BankId(0);
        let mut found = None;
        'rows: for row in 0..4000u32 {
            let rcells = m.retention_cells(bank, RowAddr(row));
            let hcells = m.row_cells(bank, RowAddr(row));
            for rc in rcells.iter() {
                for hc in hcells.cells() {
                    if (rc.byte, rc.bit) == (hc.byte, hc.bit)
                        && rc.anti_cell == hc.anti_cell
                        && hc.threshold_at(75.0).is_some()
                    {
                        found = Some((row, *rc, hc));
                        break 'rows;
                    }
                }
            }
        }
        let (row, rc, _hc) = found.expect("no retention/hammer collision in 4000 rows");
        // Data that stores the vulnerable value at the shared position.
        let fill = if rc.anti_cell { 0x00 } else { 0xFF };
        let data = vec![fill; 8192];
        // Restore at t=0 so idle time accrues, then let the row sit for
        // an hour at 75 °C (every retention cell leaks) while its
        // neighbors take a crushing dose (every in-window cell flips).
        m.on_restore(bank, RowAddr(row), 0);
        m.on_hammer(bank, RowAddr(row.wrapping_sub(1)), 500_000_000, 34_500, 16_500);
        m.on_hammer(bank, RowAddr(row + 1), 500_000_000, 34_500, 16_500);
        let hour_ps = 3_600_000_000_000_000;
        let flips = m.flips_on_activate(bank, RowAddr(row), &RowView::bytes(&data), hour_ps);
        let at_pos = flips.iter().filter(|f| (f.byte, f.bit) == (rc.byte, rc.bit)).count();
        assert_eq!(at_pos, 1, "collision cell must flip exactly once, got {at_pos}");
        // And nothing else may be emitted twice either.
        let mut uniq: Vec<_> = flips.iter().map(|f| (f.byte, f.bit)).collect();
        uniq.dedup();
        assert_eq!(uniq.len(), flips.len(), "duplicate flips in result");
    }

    #[test]
    fn scalar_and_columnar_agree_on_a_heavy_hammer() {
        let run = |mode: EvalMode| {
            let mut m = RowHammerModel::new(Manufacturer::B, 99).with_eval_mode(mode);
            m.set_temperature(80.0);
            m.on_hammer(BankId(2), RowAddr(777), 1_500_000, 54_500, 16_500);
            m.on_hammer(BankId(2), RowAddr(779), 1_500_000, 54_500, 16_500);
            m.flips_on_activate(BankId(2), RowAddr(778), &RowView::bytes(&vec![0x55u8; 8192]), 0)
        };
        let columnar = run(EvalMode::Columnar);
        let scalar = run(EvalMode::ScalarReference);
        assert!(!columnar.is_empty());
        assert_eq!(columnar, scalar);
    }

    #[test]
    fn memoized_derivation_matches_direct_derivation() {
        // Seeds no other test uses, so every row below is derived here
        // through the memo rather than served by the global cache.
        for (i, mfr) in Manufacturer::ALL.into_iter().enumerate() {
            let seed = 0x3E30_0000 + i as u64;
            let mut m = RowHammerModel::new(mfr, seed);
            let profile = *m.profile();
            // Default geometry, then a narrower row: the memo must be
            // rebuilt for the new column count, not reused.
            for row_bytes in [8192usize, 2048] {
                m.configure_geometry(65_536, row_bytes);
                for row in (0..4000u32).step_by(97) {
                    let mut direct = crate::cell::derive_row_cells(
                        &profile,
                        seed,
                        BankId(1),
                        RowAddr(row),
                        row_bytes,
                        512,
                    );
                    // The table lists the cells by base threshold.
                    direct.sort_by(|a, b| a.threshold.total_cmp(&b.threshold));
                    assert_eq!(
                        m.row_cells(BankId(1), RowAddr(row)).cells().collect::<Vec<_>>(),
                        direct,
                        "{mfr} row {row} at {row_bytes} B/row"
                    );
                }
            }
        }
    }

    #[test]
    fn row_cells_cache_shares_across_model_instances() {
        // Two models with the same identity are the same physical
        // module, so their derivations must come out Arc-equal via the
        // process-global cache.
        let mut a = RowHammerModel::new(Manufacturer::D, 4242);
        let mut b = RowHammerModel::new(Manufacturer::D, 4242);
        let ca = a.row_cells(BankId(0), RowAddr(123));
        let cb = b.row_cells(BankId(0), RowAddr(123));
        assert!(Arc::ptr_eq(&ca, &cb), "global cache must share derivations");
        // A different seed is a different module: no sharing.
        let mut c = RowHammerModel::new(Manufacturer::D, 4243);
        let cc = c.row_cells(BankId(0), RowAddr(123));
        assert!(!Arc::ptr_eq(&ca, &cc));
        assert!(ca.cells().ne(cc.cells()));
    }

    #[test]
    fn concurrent_misses_on_one_cold_row_derive_it_once() {
        // A module seed no other test uses, so the row starts cold.
        let threads = 8;
        let start = std::sync::Barrier::new(threads);
        let got: Vec<(Arc<CellTable>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut m = RowHammerModel::new(Manufacturer::B, 0x5eed_0c01d);
                        start.wait();
                        m.table(BankId(2), RowAddr(321))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got.iter().filter(|(_, built)| *built).count(), 1, "one derivation");
        assert!(got.iter().all(|(t, _)| Arc::ptr_eq(t, &got[0].0)), "one shared table");
    }

    /// Every row's dose (as bit patterns) and restore time, and
    /// `trial_nonce`: everything an episode changes.
    type EpisodeState = (Vec<((u32, u32), u64)>, Vec<((u32, u32), Picos)>, u64);

    fn episode_state(m: &RowHammerModel) -> EpisodeState {
        let mut acc: Vec<_> = m
            .rows
            .iter()
            .filter(|(_, s)| s.acc != 0.0)
            .map(|(&k, s)| (k, s.acc.to_bits()))
            .collect();
        let mut last: Vec<_> =
            m.rows.iter().filter_map(|(&k, s)| Some((k, s.last_restore?))).collect();
        acc.sort_unstable();
        last.sort_unstable();
        (acc, last, m.trial_nonce)
    }

    /// The first `q` episodes of `run` through the single-episode calls
    /// (sensing is omitted: a quiet sensing changes none of the state
    /// above).
    fn exact_episodes(m: &mut RowHammerModel, run: &RoundRobin<'_>, q: u64) {
        for j in 0..q {
            m.on_restore(run.bank, run.row(j), run.at(j));
            m.on_hammer(run.bank, run.row(j), 1, run.t_on, run.t_off);
        }
    }

    /// Applies `run`'s quiet prefix to `bulk` and the same episodes
    /// one by one to `single`; both must end in the same state.
    fn quiet_prefix_agrees(
        bulk: &mut RowHammerModel,
        single: &mut RowHammerModel,
        run: &RoundRobin<'_>,
    ) -> u64 {
        let q = bulk.hammer_quiet_prefix(run);
        assert!(q <= run.n);
        exact_episodes(single, run, q);
        assert_eq!(episode_state(bulk), episode_state(single), "start {}, n {}", run.start, run.n);
        q
    }

    fn run_of(rows: &[RowAddr], start: usize, n: u64, now: Picos) -> RoundRobin<'_> {
        RoundRobin { bank: BankId(1), rows, start, n, t_on: 34_500, t_off: 16_500, now }
    }

    #[test]
    fn quiet_prefix_matches_single_episodes() {
        let (mut bulk, mut single) = (model(), model());
        for m in [&mut bulk, &mut single] {
            m.configure_geometry(1024, 8192);
        }
        // Four nested pairs, both bank edges, and a repeated row.
        let rows: Vec<RowAddr> = [499, 501, 497, 503, 495, 505, 493, 507, 0, 1023, 1, 499]
            .into_iter()
            .map(RowAddr)
            .collect();
        let mut now = 1_000;
        for (start, n) in [(0, 1), (3, 5), (7, 12), (11, 40), (2, 1000)] {
            let run = run_of(&rows, start, n, now);
            assert_eq!(
                quiet_prefix_agrees(&mut bulk, &mut single, &run),
                n,
                "every episode is quiet"
            );
            now = run.at(n);
            // A refresh between runs: the next call must see it.
            for m in [&mut bulk, &mut single] {
                m.on_restore(BankId(1), RowAddr(500), now);
            }
        }
        // Same aggressors at a new temperature: a fresh window.
        for m in [&mut bulk, &mut single] {
            m.set_temperature(85.0);
        }
        let run = run_of(&rows, 5, 77, now);
        assert_eq!(quiet_prefix_agrees(&mut bulk, &mut single, &run), 77);
    }

    #[test]
    fn quiet_prefix_stops_at_a_dose_of_one_unit() {
        let (mut bulk, mut single) = (model(), model());
        // Row 11 takes 0.5 units from each of rows 10 and 12 per
        // cycle, so its episode in the second cycle senses 1.0 unit.
        let rows = [RowAddr(10), RowAddr(12), RowAddr(11)];
        let run = run_of(&rows, 0, 10, 0);
        assert_eq!(quiet_prefix_agrees(&mut bulk, &mut single, &run), 2);
        assert_eq!(bulk.accumulated(BankId(1), RowAddr(11)), 1.0);
        // An aggressor preloaded with 1.0 unit is not quiet on its
        // first episode, the third from index 1.
        for (start, quiet) in [(0, 0), (1, 2)] {
            let (mut bulk, mut single) = (model(), model());
            for m in [&mut bulk, &mut single] {
                m.on_hammer(BankId(1), RowAddr(9), 2, 34_500, 16_500);
            }
            let run = run_of(&rows, start, 10, 0);
            assert_eq!(quiet_prefix_agrees(&mut bulk, &mut single, &run), quiet);
        }
    }

    #[test]
    fn quiet_prefix_stops_where_a_retention_cell_leaks() {
        let mut m = model();
        m.set_temperature(90.0);
        let (bank, row) = (BankId(1), RowAddr(700));
        let cells = m.retention_cells(bank, row);
        let min = cells.iter().map(|c| c.retention_at(90.0)).fold(f64::INFINITY, f64::min);
        let longest_quiet = min.floor() as Picos;
        assert!(cells.iter().all(|c| !c.leaked(longest_quiet, 90.0)));
        assert!(cells.iter().any(|c| c.leaked(longest_quiet + 1, 90.0)));
        let rows = [RowAddr(690), row];
        for (idle, quiet) in [(longest_quiet, 2), (longest_quiet + 1, 1)] {
            let (mut bulk, mut single) = (model(), model());
            for m in [&mut bulk, &mut single] {
                m.set_temperature(90.0);
                m.on_restore(bank, row, 0);
            }
            // Row 700's episode is the second, one episode later.
            let run = run_of(&rows, 0, 2, idle - 51_000);
            assert_eq!(quiet_prefix_agrees(&mut bulk, &mut single, &run), quiet, "idle {idle}");
        }
        // The same aggressors, first at 45 °C, then at 90 °C: the
        // window must not keep the cooler (longer) retention times.
        let (mut bulk, mut single) = (model(), model());
        for m in [&mut bulk, &mut single] {
            m.set_temperature(45.0);
            m.on_restore(bank, row, 0);
        }
        let cool = run_of(&rows, 0, 2, 1_000);
        assert_eq!(quiet_prefix_agrees(&mut bulk, &mut single, &cool), 2);
        for m in [&mut bulk, &mut single] {
            m.set_temperature(90.0);
        }
        // Row 700 first, idle just past its shortest 90 °C retention.
        let hot = run_of(&rows, 1, 2, cool.at(1) + longest_quiet + 1);
        assert_eq!(quiet_prefix_agrees(&mut bulk, &mut single, &hot), 0);
    }
}
