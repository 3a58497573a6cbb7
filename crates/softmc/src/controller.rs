//! The simulated memory controller: executes SoftMC programs against a
//! DRAM module with precise time accounting, and provides a bulk
//! double-sided-hammer fast path for large sweeps.

use crate::cancel::CancelToken;
use crate::error::SoftMcError;
use crate::program::{Instr, Program};
use rh_dram::{
    BankId, Command, DramModule, Picos, RowAddr, TimedCommand,
};
use rh_obs::names;
use serde::{Deserialize, Serialize};

/// Per-opcode issue-latency histograms and command counters, indexed
/// by [`opcode_index`]. Shared arrays (instead of a `timer!` and a
/// `counter!` per match arm) keep the opcode dispatch in data rather
/// than in seven copies of the code.
static ISSUE_NS: [rh_obs::Histogram; 7] = [
    rh_obs::Histogram::new(names::SOFTMC_ISSUE_ACT_NS),
    rh_obs::Histogram::new(names::SOFTMC_ISSUE_PRE_NS),
    rh_obs::Histogram::new(names::SOFTMC_ISSUE_PRE_ALL_NS),
    rh_obs::Histogram::new(names::SOFTMC_ISSUE_RD_NS),
    rh_obs::Histogram::new(names::SOFTMC_ISSUE_WR_NS),
    rh_obs::Histogram::new(names::SOFTMC_ISSUE_REF_NS),
    rh_obs::Histogram::new(names::SOFTMC_ISSUE_NOP_NS),
];
static CMD_COUNT: [rh_obs::Counter; 7] = [
    rh_obs::Counter::new(names::SOFTMC_CMD_ACT),
    rh_obs::Counter::new(names::SOFTMC_CMD_PRE),
    rh_obs::Counter::new(names::SOFTMC_CMD_PRE_ALL),
    rh_obs::Counter::new(names::SOFTMC_CMD_RD),
    rh_obs::Counter::new(names::SOFTMC_CMD_WR),
    rh_obs::Counter::new(names::SOFTMC_CMD_REF),
    rh_obs::Counter::new(names::SOFTMC_CMD_NOP),
];

/// The result of executing one program.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecResult {
    /// Beats returned by RD instructions, in program order.
    pub reads: Vec<[u8; 8]>,
    /// Total commands issued.
    pub commands: u64,
    /// Wall-clock duration of the program in picoseconds.
    pub duration: Picos,
}

/// A SoftMC-like memory controller bound to one DRAM module.
#[derive(Debug)]
pub struct SoftMcController {
    module: DramModule,
    /// When set, executed commands are recorded for trace rendering
    /// (the textual Fig. 6).
    record_trace: bool,
    trace: Vec<TimedCommand>,
}

impl SoftMcController {
    /// Creates a controller driving `module`.
    pub fn new(module: DramModule) -> Self {
        Self { module, record_trace: false, trace: Vec::new() }
    }

    /// The module under test.
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// Mutable access to the module under test.
    pub fn module_mut(&mut self) -> &mut DramModule {
        &mut self.module
    }

    /// Enables or disables command-trace recording.
    pub fn set_record_trace(&mut self, on: bool) {
        self.record_trace = on;
        if !on {
            self.trace.clear();
        }
    }

    /// The recorded command trace (empty unless recording is enabled).
    pub fn trace(&self) -> &[TimedCommand] {
        &self.trace
    }

    /// Executes `program`, advancing module time by exactly the
    /// program's delays.
    ///
    /// # Errors
    ///
    /// Propagates device errors ([`SoftMcError::Dram`]) such as timing
    /// violations and reads of uninitialized rows.
    pub fn run(&mut self, program: &Program) -> Result<ExecResult, SoftMcError> {
        self.run_inner(program, None)
    }

    /// Like [`run`](Self::run), but checks `cancel` at every loop
    /// iteration and unwinds with [`SoftMcError::Cancelled`] once it
    /// fires — the "next command boundary" a cancelled hammer loop
    /// stops at. The device is left at a consistent command boundary;
    /// only time already spent has been accounted.
    ///
    /// # Errors
    ///
    /// [`SoftMcError::Cancelled`] on cancellation, plus everything
    /// [`run`](Self::run) can return.
    pub fn run_cancellable(
        &mut self,
        program: &Program,
        cancel: &CancelToken,
    ) -> Result<ExecResult, SoftMcError> {
        self.run_inner(program, Some(cancel))
    }

    fn run_inner(
        &mut self,
        program: &Program,
        cancel: Option<&CancelToken>,
    ) -> Result<ExecResult, SoftMcError> {
        let start = self.module.now();
        let mut at = start;
        let mut result = ExecResult::default();
        self.run_instrs(program.instrs(), &mut at, &mut result, cancel)?;
        // Advance the device clock past any trailing Wait so the next
        // program starts after this one's final delays.
        if at > self.module.now() {
            self.module.issue(&TimedCommand { at, cmd: Command::Nop })?;
        }
        // Attribute the final precharge episodes to the fault model.
        self.module.flush_hammers();
        result.duration = at - start;
        Ok(result)
    }

    fn run_instrs(
        &mut self,
        instrs: &[Instr],
        at: &mut Picos,
        result: &mut ExecResult,
        cancel: Option<&CancelToken>,
    ) -> Result<(), SoftMcError> {
        for i in instrs {
            match i {
                Instr::Wait { ps } => *at += ps,
                Instr::Loop { count, body } => {
                    for _ in 0..*count {
                        if let Some(token) = cancel {
                            if token.is_cancelled() {
                                return Err(SoftMcError::Cancelled {
                                    op: "program loop".to_string(),
                                });
                            }
                        }
                        self.run_instrs(body, at, result, cancel)?;
                    }
                }
                Instr::Act { bank, row } => {
                    self.issue(*at, Command::Act { bank: *bank, row: *row }, result)?;
                }
                Instr::Pre { bank } => {
                    self.issue(*at, Command::Pre { bank: *bank }, result)?;
                }
                Instr::Rd { bank, column } => {
                    if let Some(beat) =
                        self.issue(*at, Command::Rd { bank: *bank, column: *column }, result)?
                    {
                        result.reads.push(beat);
                    }
                }
                Instr::Wr { bank, column, data } => {
                    self.issue(
                        *at,
                        Command::Wr { bank: *bank, column: *column, data: *data },
                        result,
                    )?;
                }
            }
        }
        Ok(())
    }

    fn issue(
        &mut self,
        at: Picos,
        cmd: Command,
        result: &mut ExecResult,
    ) -> Result<Option<[u8; 8]>, SoftMcError> {
        rh_obs::counter!(names::SOFTMC_CMD, 1);
        CMD_COUNT[opcode_index(&cmd)].add(1);
        // Inert (no clock read) when observability is disabled; drops
        // at the end of `issue`, so it times the full device hand-off.
        let _issue_timer = ISSUE_NS[opcode_index(&cmd)].timer();
        let tc = TimedCommand { at, cmd };
        if self.record_trace {
            self.trace.push(tc.clone());
        }
        result.commands += 1;
        Ok(self.module.issue(&tc)?)
    }

    /// Bulk fast path for the standard double-sided hammer: equivalent
    /// to running [`Program::double_sided_hammer`] but without walking
    /// `4 × count` instructions. Equivalence is asserted by the
    /// `bulk_path_matches_program_path` integration test.
    ///
    /// # Errors
    ///
    /// Propagates device address errors.
    pub fn hammer_double_sided(
        &mut self,
        bank: BankId,
        left: RowAddr,
        right: RowAddr,
        count: u64,
        t_on: Picos,
        t_off: Picos,
    ) -> Result<(), SoftMcError> {
        rh_obs::counter!(names::SOFTMC_HAMMER_BULK, 1);
        // An earlier revision hammered `left` for the whole burst and
        // then `right`, which let the aggressors' mutual distance-2
        // disturbance accumulate unrestored — the alternating program
        // clears it every episode. `hammer_pair_direct` keeps the
        // interleaved accounting.
        self.module.hammer_pair_direct(bank, left, right, count, t_on, t_off)?;
        Ok(())
    }

    /// Bulk single-sided hammer fast path.
    ///
    /// # Errors
    ///
    /// Propagates device address errors.
    pub fn hammer_single_sided(
        &mut self,
        bank: BankId,
        aggressor: RowAddr,
        count: u64,
        t_on: Picos,
        t_off: Picos,
    ) -> Result<(), SoftMcError> {
        rh_obs::counter!(names::SOFTMC_HAMMER_BULK, 1);
        self.module.hammer_direct(bank, aggressor, count, t_on, t_off)?;
        Ok(())
    }
}

/// Index of one DRAM command's slot in [`ISSUE_NS`] and [`CMD_COUNT`].
fn opcode_index(cmd: &Command) -> usize {
    match cmd {
        Command::Act { .. } => 0,
        Command::Pre { .. } => 1,
        Command::PreAll => 2,
        Command::Rd { .. } => 3,
        Command::Wr { .. } => 4,
        Command::Ref => 5,
        Command::Nop => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_dram::{Manufacturer, ModuleConfig};

    fn controller() -> SoftMcController {
        SoftMcController::new(DramModule::new(ModuleConfig::ddr4(Manufacturer::D)))
    }

    #[test]
    fn executes_write_then_read_program() {
        let mut c = controller();
        let t = c.module().config().timing;
        let data = vec![0x3Cu8; c.module().row_bytes()];
        c.run(&Program::write_row(BankId(0), RowAddr(7), &data, &t)).unwrap();
        let r = c
            .run(&Program::read_row(BankId(0), RowAddr(7), 1024, &t))
            .unwrap();
        assert_eq!(r.reads.len(), 1024);
        assert!(r.reads.iter().all(|b| *b == [0x3C; 8]));
    }

    #[test]
    fn duration_accounts_waits() {
        let mut c = controller();
        let p = Program::new(vec![Instr::Wait { ps: 123 }, Instr::Wait { ps: 877 }]).unwrap();
        let r = c.run(&p).unwrap();
        assert_eq!(r.duration, 1000);
        assert_eq!(r.commands, 0);
    }

    #[test]
    fn hammer_program_counts_activations() {
        let mut c = controller();
        let t = c.module().config().timing;
        let p = Program::double_sided_hammer(
            BankId(0),
            RowAddr(20),
            RowAddr(22),
            50,
            t.t_ras,
            t.t_rp,
        );
        let r = c.run(&p).unwrap();
        assert_eq!(r.commands, 200);
        assert_eq!(r.duration, 50 * 2 * (t.t_ras + t.t_rp));
    }

    #[test]
    fn trace_recording_captures_commands() {
        let mut c = controller();
        c.set_record_trace(true);
        let t = c.module().config().timing;
        let p = Program::double_sided_hammer(BankId(0), RowAddr(1), RowAddr(3), 2, t.t_ras, t.t_rp);
        c.run(&p).unwrap();
        assert_eq!(c.trace().len(), 8);
        let rendered = rh_dram::command::render_trace(c.trace());
        assert!(rendered.contains("ACT(b0,r1)"));
        c.set_record_trace(false);
        assert!(c.trace().is_empty());
    }

    #[test]
    fn cancelled_token_stops_program_at_loop_boundary() {
        let mut c = controller();
        let t = c.module().config().timing;
        let p = Program::double_sided_hammer(
            BankId(0),
            RowAddr(20),
            RowAddr(22),
            1_000,
            t.t_ras,
            t.t_rp,
        );
        let token = CancelToken::new();
        token.cancel();
        let e = c.run_cancellable(&p, &token).unwrap_err();
        assert!(matches!(e, SoftMcError::Cancelled { .. }), "{e}");

        // An uncancelled token changes nothing relative to plain run.
        let fresh = CancelToken::new();
        let a = c.run_cancellable(&p, &fresh).unwrap();
        let b = c.run(&p).unwrap();
        assert_eq!(a.commands, b.commands);
        assert_eq!(a.duration, b.duration);
    }

    #[test]
    fn timing_violation_propagates() {
        let mut c = controller();
        let p = Program::new(vec![
            Instr::Act { bank: BankId(0), row: RowAddr(1) },
            Instr::Wait { ps: 100 }, // far below tRAS
            Instr::Pre { bank: BankId(0) },
        ])
        .unwrap();
        assert!(matches!(c.run(&p), Err(SoftMcError::Dram(_))));
    }
}
