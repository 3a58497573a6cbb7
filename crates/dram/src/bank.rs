//! Per-bank state machine with timing-violation detection.

use crate::error::DramError;
use crate::geometry::{BankId, RowAddr};
use crate::timing::{Picos, TimingParams};
use serde::{Deserialize, Serialize};

/// The observable state of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BankState {
    /// All rows closed; ready for ACT after tRP.
    Precharged,
    /// A row is open in the row buffer.
    Active {
        /// The open physical row.
        row: RowAddr,
        /// When it was activated.
        since: Picos,
    },
}

/// A completed activate→precharge episode of one row, produced when the
/// bank is precharged. `t_off` of the *preceding* precharged interval
/// is attributed when the next activation arrives (see
/// [`Bank::activate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClosedActivation {
    /// The physical row that was open.
    pub row: RowAddr,
    /// How long the row stayed open (aggressor on-time).
    pub t_on: Picos,
}

/// One DRAM bank: a row buffer plus the timing state needed to validate
/// command legality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bank {
    id: BankId,
    state: BankState,
    /// Time of the most recent PRE (bank precharged since then).
    last_pre: Option<Picos>,
    /// Time of the most recent ACT.
    last_act: Option<Picos>,
    /// The episode closed by the most recent PRE, awaiting its
    /// following off-time.
    pending: Option<ClosedActivation>,
}

/// A fully-attributed hammer event: one activation episode of `row`
/// with its on-time and the off-time that followed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HammerEvent {
    /// The hammered (aggressor) physical row.
    pub row: RowAddr,
    /// Aggressor on-time.
    pub t_on: Picos,
    /// Aggressor off-time (bank precharged time after the episode).
    pub t_off: Picos,
}

impl Bank {
    /// Creates a precharged bank.
    pub fn new(id: BankId) -> Self {
        Self {
            id,
            state: BankState::Precharged,
            last_pre: None,
            last_act: None,
            pending: None,
        }
    }

    /// Current bank state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<RowAddr> {
        match self.state {
            BankState::Active { row, .. } => Some(row),
            BankState::Precharged => None,
        }
    }

    /// Activates `row` at time `now`.
    ///
    /// Returns the previous episode as a fully-attributed
    /// [`HammerEvent`] once its off-time is known (i.e., now).
    ///
    /// # Errors
    ///
    /// [`DramError::IllegalCommand`] if a row is already open, and (when
    /// `enforce` is set) [`DramError::TimingViolation`] if tRP has not
    /// elapsed since the last precharge.
    pub fn activate(
        &mut self,
        now: Picos,
        row: RowAddr,
        t: &TimingParams,
        enforce: bool,
    ) -> Result<Option<HammerEvent>, DramError> {
        if let BankState::Active { .. } = self.state {
            return Err(DramError::IllegalCommand { what: "ACT while a row is open", bank: self.id });
        }
        let mut event = None;
        if let Some(pre_at) = self.last_pre {
            let observed = now.saturating_sub(pre_at);
            if enforce && observed < t.t_rp {
                return Err(DramError::TimingViolation {
                    parameter: "tRP",
                    required: t.t_rp,
                    observed,
                });
            }
            if let Some(p) = self.pending.take() {
                event = Some(HammerEvent { row: p.row, t_on: p.t_on, t_off: observed });
            }
        }
        self.state = BankState::Active { row, since: now };
        self.last_act = Some(now);
        Ok(event)
    }

    /// Precharges the bank at time `now`.
    ///
    /// # Errors
    ///
    /// [`DramError::IllegalCommand`] if no row is open, and (when
    /// `enforce` is set) [`DramError::TimingViolation`] if tRAS has not
    /// elapsed since activation.
    pub fn precharge(
        &mut self,
        now: Picos,
        t: &TimingParams,
        enforce: bool,
    ) -> Result<(), DramError> {
        match self.state {
            BankState::Precharged => {
                Err(DramError::IllegalCommand { what: "PRE on a precharged bank", bank: self.id })
            }
            BankState::Active { row, since } => {
                let observed = now.saturating_sub(since);
                if enforce && observed < t.t_ras {
                    return Err(DramError::TimingViolation {
                        parameter: "tRAS",
                        required: t.t_ras,
                        observed,
                    });
                }
                self.pending = Some(ClosedActivation { row, t_on: observed });
                self.state = BankState::Precharged;
                self.last_pre = Some(now);
                Ok(())
            }
        }
    }

    /// Validates that a column command (RD/WR) is legal at `now` and
    /// returns the open row.
    ///
    /// # Errors
    ///
    /// [`DramError::IllegalCommand`] when the bank is precharged, and
    /// (when `enforce` is set) [`DramError::TimingViolation`] before
    /// tRCD has elapsed.
    pub fn column_access(
        &self,
        now: Picos,
        t: &TimingParams,
        enforce: bool,
    ) -> Result<RowAddr, DramError> {
        match self.state {
            BankState::Precharged => {
                Err(DramError::IllegalCommand { what: "column access on precharged bank", bank: self.id })
            }
            BankState::Active { row, since } => {
                let observed = now.saturating_sub(since);
                if enforce && observed < t.t_rcd {
                    return Err(DramError::TimingViolation {
                        parameter: "tRCD",
                        required: t.t_rcd,
                        observed,
                    });
                }
                Ok(row)
            }
        }
    }

    /// Drains the episode left pending after the final PRE, attributing
    /// it the default off-time `t_off`.
    pub fn flush_pending(&mut self, t_off: Picos) -> Option<HammerEvent> {
        self.pending.take().map(|p| HammerEvent { row: p.row, t_on: p.t_on, t_off })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr4_2400()
    }

    #[test]
    fn act_pre_act_produces_attributed_event() {
        let tp = t();
        let mut b = Bank::new(BankId(0));
        assert_eq!(b.activate(0, RowAddr(5), &tp, true).unwrap(), None);
        b.precharge(tp.t_ras, &tp, true).unwrap();
        let ev = b.activate(tp.t_ras + tp.t_rp, RowAddr(7), &tp, true).unwrap().unwrap();
        assert_eq!(ev.row, RowAddr(5));
        assert_eq!(ev.t_on, tp.t_ras);
        assert_eq!(ev.t_off, tp.t_rp);
    }

    #[test]
    fn double_act_is_illegal() {
        let tp = t();
        let mut b = Bank::new(BankId(1));
        b.activate(0, RowAddr(1), &tp, true).unwrap();
        let e = b.activate(100_000, RowAddr(2), &tp, true).unwrap_err();
        assert!(matches!(e, DramError::IllegalCommand { .. }));
    }

    #[test]
    fn early_pre_violates_tras() {
        let tp = t();
        let mut b = Bank::new(BankId(0));
        b.activate(0, RowAddr(1), &tp, true).unwrap();
        let e = b.precharge(tp.t_ras - 1, &tp, true).unwrap_err();
        assert!(matches!(e, DramError::TimingViolation { parameter: "tRAS", .. }));
    }

    #[test]
    fn early_act_violates_trp() {
        let tp = t();
        let mut b = Bank::new(BankId(0));
        b.activate(0, RowAddr(1), &tp, true).unwrap();
        b.precharge(tp.t_ras, &tp, true).unwrap();
        let e = b.activate(tp.t_ras + tp.t_rp - 1, RowAddr(2), &tp, true).unwrap_err();
        assert!(matches!(e, DramError::TimingViolation { parameter: "tRP", .. }));
    }

    #[test]
    fn unenforced_mode_permits_violations() {
        let tp = t();
        let mut b = Bank::new(BankId(0));
        b.activate(0, RowAddr(1), &tp, false).unwrap();
        b.precharge(1, &tp, false).unwrap();
        let ev = b.activate(2, RowAddr(2), &tp, false).unwrap().unwrap();
        assert_eq!(ev.t_on, 1);
        assert_eq!(ev.t_off, 1);
    }

    #[test]
    fn column_access_needs_open_row_and_trcd() {
        let tp = t();
        let mut b = Bank::new(BankId(0));
        assert!(b.column_access(0, &tp, true).is_err());
        b.activate(0, RowAddr(9), &tp, true).unwrap();
        assert!(matches!(
            b.column_access(tp.t_rcd - 1, &tp, true),
            Err(DramError::TimingViolation { parameter: "tRCD", .. })
        ));
        assert_eq!(b.column_access(tp.t_rcd, &tp, true).unwrap(), RowAddr(9));
    }

    #[test]
    fn flush_pending_attributes_final_episode() {
        let tp = t();
        let mut b = Bank::new(BankId(0));
        b.activate(0, RowAddr(2), &tp, true).unwrap();
        b.precharge(tp.t_ras, &tp, true).unwrap();
        let ev = b.flush_pending(tp.t_rp).unwrap();
        assert_eq!(ev.row, RowAddr(2));
        assert_eq!(ev.t_off, tp.t_rp);
        assert!(b.flush_pending(tp.t_rp).is_none());
    }
}
