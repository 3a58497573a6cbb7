//! A request-level memory controller: per-bank queues, FR-FCFS
//! arbitration, row-buffer policies, and latency accounting.
//!
//! The SoftMC side of this crate replays *test programs*; this module
//! models the *production* memory controller the paper's §8.2
//! improvements modify — most directly Improvement 5, which bounds the
//! aggressor row open time via the row-buffer policy
//! ([`RowPolicy::CappedOpen`]). A defense integrates through
//! [`ActivationHook`], receiving every activation and injecting
//! targeted refreshes or throttling delays.
//!
//! Timing is bank-accurate (tRP/tRCD/tRAS/tCCD/CL per bank) and
//! channel-contention-free (one channel, banks fully parallel) — the
//! right fidelity for comparing row policies and defense overheads,
//! not for absolute IPC.

use crate::error::SoftMcError;
use rh_dram::{BankId, DramModule, Picos, RowAddr, TimingParams};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One memory request (already routed to this channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Request id (for tracing).
    pub id: u64,
    /// Target bank.
    pub bank: BankId,
    /// Target logical row.
    pub row: RowAddr,
    /// Target column.
    pub column: u32,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Arrival time at the controller (ps).
    pub arrival: Picos,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowPolicy {
    /// Keep rows open until a conflicting access (classic open page).
    OpenPage,
    /// Precharge immediately after each access.
    ClosedPage,
    /// Open page, but force a precharge once a row has been open for
    /// `cap` — §8.2 Improvement 5's RowHammer-aware policy.
    CappedOpen {
        /// Maximum row-open time (ps).
        cap: Picos,
    },
}

/// Actions an [`ActivationHook`] may request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HookAction {
    /// Refresh a physical row (blocks the bank for one row cycle).
    RefreshRow(RowAddr),
    /// Stall the requesting bank.
    Delay(Picos),
}

/// Observer of the activation stream (how RowHammer defenses plug into
/// the controller without a dependency cycle between crates).
pub type ActivationHook = Box<dyn FnMut(BankId, RowAddr, Picos) -> Vec<HookAction> + Send>;

/// Aggregate service statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MemStats {
    /// Requests completed.
    pub completed: u64,
    /// Sum of request latencies (ps).
    pub total_latency: Picos,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row misses (activations issued).
    pub row_misses: u64,
    /// Refreshes injected by the hook.
    pub hook_refreshes: u64,
    /// Delay injected by the hook (ps).
    pub hook_delay: Picos,
    /// Completion time of the last request (ps).
    pub makespan: Picos,
}

impl MemStats {
    /// Mean request latency (ps).
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.completed as f64
        }
    }

    /// Row-buffer hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<RowAddr>,
    opened_at: Picos,
    ready_at: Picos,
}

/// The request-level memory controller.
pub struct MemController {
    module: DramModule,
    policy: RowPolicy,
    queues: Vec<VecDeque<MemRequest>>,
    /// Per bank: whether its queue is in arrival order, so that `pick`
    /// can stop at the first request that has not arrived yet instead
    /// of scanning the whole queue on every miss.
    in_order: Vec<bool>,
    banks: Vec<BankState>,
    hook: Option<ActivationHook>,
    now: Picos,
    stats: MemStats,
    /// Column-access latency (tRCD already separate): CAS latency.
    t_cl: Picos,
}

impl std::fmt::Debug for MemController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemController")
            .field("policy", &self.policy)
            .field("queued", &self.queues.iter().map(VecDeque::len).sum::<usize>())
            .field("now", &self.now)
            .finish()
    }
}

impl MemController {
    /// Creates a controller over `module` with the given row policy.
    pub fn new(module: DramModule, policy: RowPolicy) -> Self {
        let banks = module.geometry().banks as usize;
        Self {
            module,
            policy,
            queues: vec![VecDeque::new(); banks],
            in_order: vec![true; banks],
            banks: vec![BankState { open_row: None, opened_at: 0, ready_at: 0 }; banks],
            hook: None,
            now: 0,
            stats: MemStats::default(),
            t_cl: 13_750,
        }
    }

    /// Installs a defense hook observing every activation.
    pub fn set_hook(&mut self, hook: ActivationHook) {
        self.hook = Some(hook);
    }

    /// The module behind the controller.
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// Mutable access to the module behind the controller.
    pub fn module_mut(&mut self) -> &mut DramModule {
        &mut self.module
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range banks.
    pub fn submit(&mut self, req: MemRequest) -> Result<(), SoftMcError> {
        let idx = req.bank.0 as usize;
        if idx >= self.queues.len() {
            return Err(SoftMcError::Dram(rh_dram::DramError::BankOutOfRange {
                bank: req.bank,
                banks: self.queues.len() as u32,
            }));
        }
        let q = &mut self.queues[idx];
        self.in_order[idx] =
            q.back().is_none_or(|last| self.in_order[idx] && last.arrival <= req.arrival);
        q.push_back(req);
        Ok(())
    }

    /// FR-FCFS pick for one bank: oldest *pending* row-hit first, else
    /// the oldest request. A request is pending once it has arrived by
    /// the time the bank is next ready — preferring a not-yet-arrived
    /// hit would idle the bank past older work.
    fn pick(&self, bank: usize) -> Option<usize> {
        let q = &self.queues[bank];
        let front = q.front()?;
        let horizon = self.banks[bank].ready_at.max(front.arrival);
        if let Some(open) = self.banks[bank].open_row {
            let in_order = self.in_order[bank];
            if let Some(pos) = q
                .iter()
                .take_while(|r| !in_order || r.arrival <= horizon)
                .position(|r| r.row == open && r.arrival <= horizon)
            {
                return Some(pos);
            }
        }
        Some(0)
    }

    fn run_hook(&mut self, bank: BankId, row: RowAddr, at: Picos) -> (Picos, u64, Picos) {
        let Some(hook) = self.hook.as_mut() else { return (0, 0, 0) };
        let timing = *self.module.config();
        let t_rc = timing.timing.t_rc();
        let mut extra: Picos = 0;
        let mut refreshes = 0u64;
        let mut delay: Picos = 0;
        for a in hook(bank, row, at) {
            match a {
                HookAction::RefreshRow(phys) => {
                    // Best effort: the refresh blocks the bank one tRC.
                    let _ = self.module.refresh_row_physical(bank, phys);
                    extra += t_rc;
                    refreshes += 1;
                }
                HookAction::Delay(d) => {
                    extra += d;
                    delay += d;
                }
            }
        }
        (extra, refreshes, delay)
    }

    /// Services every queued request to completion and returns the
    /// accumulated statistics. Banks proceed independently; time is the
    /// max over banks (no channel contention modeled).
    pub fn drain(&mut self) -> MemStats {
        let timing: TimingParams = self.module.config().timing;
        for bank in 0..self.queues.len() {
            while let Some(pos) = self.pick(bank) {
                let Some(req) = self.queues[bank].remove(pos) else {
                    break;
                };
                let state = self.banks[bank];
                let mut t = state.ready_at.max(req.arrival);

                // Capped-open policy: force precharge of an over-age row.
                let mut open = state.open_row;
                let mut opened_at = state.opened_at;
                if let (RowPolicy::CappedOpen { cap }, Some(_)) = (self.policy, open) {
                    if t.saturating_sub(opened_at) >= cap {
                        open = None;
                    }
                }

                let hit = open == Some(req.row);
                if hit {
                    self.stats.row_hits += 1;
                    t += timing.t_ccd;
                } else {
                    self.stats.row_misses += 1;
                    if open.is_some() {
                        // Respect tRAS before the precharge.
                        let min_pre = opened_at + timing.t_ras;
                        t = t.max(min_pre);
                        t += timing.t_rp;
                    }
                    t += timing.t_rcd;
                    opened_at = t;
                    open = Some(req.row);
                    // Account the activation in the fault model and let
                    // the defense hook react.
                    let phys = self.module.config().mapping.logical_to_physical(req.row);
                    let _ = self.module.hammer_direct(
                        BankId(bank as u32),
                        req.row,
                        1,
                        timing.t_ras,
                        timing.t_rp,
                    );
                    let (extra, refreshes, delay) =
                        self.run_hook(BankId(bank as u32), phys, t);
                    t += extra;
                    self.stats.hook_refreshes += refreshes;
                    self.stats.hook_delay += delay;
                }
                t += self.t_cl;
                if let RowPolicy::ClosedPage = self.policy {
                    // Close immediately (precharge overlaps the next gap).
                    let min_pre = opened_at + timing.t_ras;
                    let pre_done = t.max(min_pre) + timing.t_rp;
                    self.banks[bank] =
                        BankState { open_row: None, opened_at, ready_at: pre_done };
                } else {
                    self.banks[bank] = BankState { open_row: open, opened_at, ready_at: t };
                }
                self.stats.completed += 1;
                self.stats.total_latency += t.saturating_sub(req.arrival);
                self.stats.makespan = self.stats.makespan.max(t);
                self.now = self.now.max(t);
            }
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_dram::{Manufacturer, ModuleConfig};

    fn controller(policy: RowPolicy) -> MemController {
        MemController::new(DramModule::new(ModuleConfig::ddr4(Manufacturer::D)), policy)
    }

    fn stream(n: u64, distinct_rows: u32, bank_count: u32) -> Vec<MemRequest> {
        (0..n)
            .map(|i| MemRequest {
                id: i,
                bank: BankId((i % u64::from(bank_count)) as u32),
                row: RowAddr(1000 + (i % u64::from(distinct_rows)) as u32),
                column: (i % 64) as u32,
                is_write: false,
                arrival: i * 5_000,
            })
            .collect()
    }

    #[test]
    fn open_page_wins_on_locality() {
        // One row per bank: everything after the first access hits.
        let mut open = controller(RowPolicy::OpenPage);
        for r in stream(4_000, 4, 4) {
            open.submit(r).unwrap();
        }
        let so = open.drain();
        let mut closed = controller(RowPolicy::ClosedPage);
        for r in stream(4_000, 4, 4) {
            closed.submit(r).unwrap();
        }
        let sc = closed.drain();
        assert!(so.hit_rate() > 0.9, "open-page hit rate {}", so.hit_rate());
        assert_eq!(sc.hit_rate(), 0.0);
        assert!(so.mean_latency() < sc.mean_latency());
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let mut c = controller(RowPolicy::OpenPage);
        // Two rows interleaved in one bank: FR-FCFS batches row hits.
        for i in 0..100u64 {
            c.submit(MemRequest {
                id: i,
                bank: BankId(0),
                row: RowAddr(if i % 2 == 0 { 10 } else { 20 }),
                column: 0,
                is_write: false,
                arrival: 0,
            })
            .unwrap();
        }
        let s = c.drain();
        // A strict FCFS order would miss on every request; FR-FCFS
        // serves each row as a batch: only 2 misses.
        assert_eq!(s.row_misses, 2, "hits {} misses {}", s.row_hits, s.row_misses);
    }

    #[test]
    fn out_of_order_arrivals_still_batch_row_hits() {
        let mut c = controller(RowPolicy::OpenPage);
        // Row 7 opens first. The pending row-7 request queued behind a
        // far-future one must still be served as a hit.
        for (row, arrival) in [(7, 0), (5, 0), (5, 1_000_000_000), (7, 0)] {
            c.submit(MemRequest {
                id: 0,
                bank: BankId(0),
                row: RowAddr(row),
                column: 0,
                is_write: false,
                arrival,
            })
            .unwrap();
        }
        let s = c.drain();
        assert_eq!((s.row_hits, s.row_misses), (2, 2));
    }

    #[test]
    fn capped_open_bounds_row_open_time() {
        // A single hot row with slow arrivals: open-page would keep it
        // open indefinitely; the cap forces periodic reactivation.
        let cap = 200_000;
        let mut c = controller(RowPolicy::CappedOpen { cap });
        for i in 0..50u64 {
            c.submit(MemRequest {
                id: i,
                bank: BankId(0),
                row: RowAddr(7),
                column: 0,
                is_write: false,
                arrival: i * 500_000, // arrivals far apart
            })
            .unwrap();
        }
        let s = c.drain();
        assert!(
            s.row_misses > 10,
            "cap never forced a reactivation (misses {})",
            s.row_misses
        );
    }

    #[test]
    fn hook_refreshes_add_latency_and_count() {
        let mk = |with_hook: bool| {
            let mut c = controller(RowPolicy::ClosedPage);
            if with_hook {
                // Refresh a neighbor on every activation (PARA at p=1).
                c.set_hook(Box::new(|_, row, _| {
                    vec![HookAction::RefreshRow(row.offset(1))]
                }));
            }
            for r in stream(2_000, 64, 2) {
                c.submit(r).unwrap();
            }
            c.drain()
        };
        let base = mk(false);
        let defended = mk(true);
        assert_eq!(defended.hook_refreshes, defended.row_misses);
        assert!(defended.mean_latency() > base.mean_latency());
    }

    #[test]
    fn hook_delays_are_accounted() {
        let mut c = controller(RowPolicy::ClosedPage);
        c.set_hook(Box::new(|_, _, _| vec![HookAction::Delay(1_000_000)]));
        for r in stream(100, 8, 1) {
            c.submit(r).unwrap();
        }
        let s = c.drain();
        assert_eq!(s.hook_delay, 100 * 1_000_000);
    }

    #[test]
    fn activations_feed_the_fault_model() {
        // A RowHammer access pattern expressed as ordinary memory
        // requests must flip bits through the production controller
        // too: closed-page, alternating the two neighbors of a victim.
        use rh_faultmodel::RowHammerModel;
        let mut model = RowHammerModel::new(Manufacturer::B, 99);
        rh_dram::DisturbanceModel::set_temperature(&mut model, 75.0);
        let module =
            DramModule::with_model(ModuleConfig::ddr4(Manufacturer::B), Box::new(model));
        let mut c = MemController::new(module, RowPolicy::ClosedPage);
        // `victim` is a *physical* row; requests address logical rows,
        // so translate through the module's mapping like an attacker
        // who has reverse-engineered it.
        let victim = RowAddr(5000);
        let mapping = c.module().config().mapping;
        let row_bytes = c.module().row_bytes();
        for d in -2i64..=2 {
            let logical = mapping.physical_to_logical(victim.offset(d));
            c.module_mut()
                .write_row_direct(BankId(0), logical, &vec![0u8; row_bytes])
                .unwrap();
        }
        let left = mapping.physical_to_logical(victim.offset(-1));
        let right = mapping.physical_to_logical(victim.offset(1));
        for i in 0..300_000u64 {
            c.submit(MemRequest {
                id: i,
                bank: BankId(0),
                row: if i % 2 == 0 { left } else { right },
                column: 0,
                is_write: false,
                arrival: i * 51_000,
            })
            .unwrap();
        }
        let s = c.drain();
        assert_eq!(s.row_misses, 300_000, "closed page: every request activates");
        let logical_victim = mapping.physical_to_logical(victim);
        let data = c.module_mut().read_row_direct(BankId(0), logical_victim).unwrap();
        let flips: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert!(flips > 0, "150K hammers through the controller must flip bits");
    }

    #[test]
    fn out_of_range_bank_rejected() {
        let mut c = controller(RowPolicy::OpenPage);
        let e = c
            .submit(MemRequest {
                id: 0,
                bank: BankId(999),
                row: RowAddr(0),
                column: 0,
                is_write: false,
                arrival: 0,
            })
            .unwrap_err();
        assert!(matches!(e, SoftMcError::Dram(_)));
    }
}
