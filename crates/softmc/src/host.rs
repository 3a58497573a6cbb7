//! The assembled test bench of Fig. 2: a DRAM module under test (with
//! its calibrated fault model), the SoftMC memory controller, and the
//! temperature controller, wired together the way the paper's host
//! machine drives them.

use crate::cancel::CancelToken;
use crate::controller::SoftMcController;
use crate::error::SoftMcError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::program::Program;
use crate::temperature::TemperatureController;
use rh_dram::{
    BankId, DramModule, Manufacturer, ModuleConfig, Picos, RowAddr, TestedModule,
};
use rh_faultmodel::RowHammerModel;
use rh_obs::names;

/// A complete RowHammer test bench for one DRAM module.
///
/// Refresh is withheld for the lifetime of the bench (the paper's
/// methodology §4.2: no REF commands are issued, disabling in-DRAM
/// TRR), and every temperature change goes through the closed-loop
/// controller before the fault model sees it.
#[derive(Debug)]
pub struct TestBench {
    controller: SoftMcController,
    temperature: TemperatureController,
    manufacturer: Manufacturer,
    module_seed: u64,
    faults: Option<FaultInjector>,
    /// Installed by supervised campaigns; `None` on an unsupervised
    /// bench (the common case for unit tests and examples).
    cancel: Option<CancelToken>,
}

impl TestBench {
    /// Builds a bench for a DDR4 module of `mfr` with fault-model
    /// identity `module_seed`.
    pub fn new(mfr: Manufacturer, module_seed: u64) -> Self {
        Self::with_config(ModuleConfig::ddr4(mfr), mfr, module_seed)
    }

    /// Builds a bench for an inventory module from Table 4.
    pub fn for_module(module: &TestedModule) -> Self {
        Self::with_config(module.module_config(), module.manufacturer, module.seed())
    }

    /// Builds a bench with an explicit module configuration.
    pub fn with_config(cfg: ModuleConfig, mfr: Manufacturer, module_seed: u64) -> Self {
        let model = RowHammerModel::new(mfr, module_seed);
        Self::with_fault_model(cfg, model, module_seed)
    }

    /// Builds a bench with an explicit (possibly ablated) fault model —
    /// the entry point for ablation studies that vary one calibration
    /// knob at a time.
    pub fn with_fault_model(cfg: ModuleConfig, model: RowHammerModel, module_seed: u64) -> Self {
        let manufacturer = model.profile().manufacturer;
        let module = DramModule::with_model(cfg, Box::new(model));
        Self {
            controller: SoftMcController::new(module),
            temperature: TemperatureController::new(module_seed ^ 0x7E49),
            manufacturer,
            module_seed,
            faults: None,
            cancel: None,
        }
    }

    /// Arms infrastructure fault injection on this bench. The module's
    /// fault stream is derived from `(plan seed, module seed)`, so the
    /// schedule is deterministic regardless of campaign scheduling. An
    /// inert plan leaves the bench untouched.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        self.install_faults(plan);
        self
    }

    /// In-place form of [`with_faults`](Self::with_faults).
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        if plan.is_inert() {
            self.faults = None;
            self.temperature.set_sensor_fault(None);
            return;
        }
        self.faults = Some(plan.injector_for(self.module_seed));
        self.temperature.set_sensor_fault(plan.sensor_fault_for(self.module_seed));
    }

    /// Installs a cooperative cancellation token. Every subsequent
    /// bench operation checks it at its command boundary and unwinds
    /// with [`SoftMcError::Cancelled`] once it fires. Supervised
    /// campaigns install a per-task token *before* building the
    /// characterizer so even setup work is cancellable.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Errors with [`SoftMcError::Cancelled`] if the installed token
    /// has fired; a no-op on an unsupervised bench. Long measurement
    /// loops outside this crate (e.g. the `hc_first` binary search)
    /// call this between probes.
    pub fn check_cancelled(&self, op: &str) -> Result<(), SoftMcError> {
        match &self.cancel {
            Some(t) if t.is_cancelled() => {
                rh_obs::counter(names::SOFTMC_CANCELLED, 1);
                Err(SoftMcError::Cancelled { op: op.to_string() })
            }
            _ => Ok(()),
        }
    }

    /// The wedged-bench path: with a token installed, block until it
    /// fires (the watchdog deadline or a campaign shutdown) and unwind
    /// as `Cancelled`; without one, degrade to an immediate
    /// `Unresponsive` so unsupervised callers cannot deadlock.
    fn hang(&self, op: &str) -> SoftMcError {
        let after_ops = self.faults.as_ref().map_or(0, |f| f.ops());
        rh_obs::counter(names::SOFTMC_FAULT_HANG, 1);
        rh_obs::event!(names::SOFTMC_HANG_EVENT, op = op, after_ops = after_ops);
        match &self.cancel {
            Some(token) => {
                while !token.is_cancelled() {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                SoftMcError::Cancelled { op: op.to_string() }
            }
            None => SoftMcError::Unresponsive { after_ops },
        }
    }

    fn host_op(&mut self, op: &str) -> Result<(), SoftMcError> {
        self.check_cancelled(op)?;
        if self.faults.as_ref().is_some_and(FaultInjector::hang_fires) {
            return Err(self.hang(op));
        }
        match &mut self.faults {
            Some(f) => {
                let r = f.on_host_op(op);
                if let Err(e) = &r {
                    note_injected_fault("host_op", op, e);
                }
                r
            }
            None => Ok(()),
        }
    }

    fn row_io(&mut self, op: &str) -> Result<(), SoftMcError> {
        self.check_cancelled(op)?;
        if self.faults.as_ref().is_some_and(FaultInjector::hang_fires) {
            return Err(self.hang(op));
        }
        match &mut self.faults {
            Some(f) => {
                let r = f.on_row_io(op);
                if let Err(e) = &r {
                    note_injected_fault("row_io", op, e);
                }
                r
            }
            None => Ok(()),
        }
    }

    /// The module's manufacturer.
    pub fn manufacturer(&self) -> Manufacturer {
        self.manufacturer
    }

    /// The fault-model identity seed.
    pub fn module_seed(&self) -> u64 {
        self.module_seed
    }

    /// The memory controller.
    pub fn controller(&self) -> &SoftMcController {
        &self.controller
    }

    /// Mutable access to the memory controller.
    pub fn controller_mut(&mut self) -> &mut SoftMcController {
        &mut self.controller
    }

    /// The module under test.
    pub fn module(&self) -> &DramModule {
        self.controller.module()
    }

    /// Mutable access to the module under test.
    pub fn module_mut(&mut self) -> &mut DramModule {
        self.controller.module_mut()
    }

    /// The temperature controller.
    pub fn temperature_controller(&self) -> &TemperatureController {
        &self.temperature
    }

    /// Sets the chip temperature through the closed-loop controller:
    /// settles the thermocouple within ±0.1 °C of the setpoint and
    /// returns the *measured* settled value. The fault model is fed the
    /// true chip temperature (the die tracks the package, §4.1) —
    /// physics follows the plant, reporting follows the sensor.
    ///
    /// # Errors
    ///
    /// [`SoftMcError::TemperatureUnstable`] if the plant cannot reach
    /// `celsius` (e.g., below ambient), if the settle loop is starved
    /// by a faulty sensor, or if an injected settle failure fires.
    pub fn set_temperature(&mut self, celsius: f64) -> Result<f64, SoftMcError> {
        self.check_cancelled("temperature settle")?;
        let mut target = celsius;
        if let Some(f) = &mut self.faults {
            if f.settle_fails() {
                let reached = self.temperature.measure();
                let err = SoftMcError::TemperatureUnstable { target: celsius, reached };
                note_injected_fault("settle", "temperature settle", &err);
                return Err(err);
            }
            // A miscalibrated rig regulates to a drifted setpoint while
            // believing it hit the requested one.
            target += f.setpoint_drift_c();
        }
        let measured = self.temperature.set_and_settle(target).map_err(|e| match e {
            SoftMcError::TemperatureUnstable { reached, .. } => {
                SoftMcError::TemperatureUnstable { target: celsius, reached }
            }
            other => other,
        })?;
        let true_temp = self.temperature.true_temperature();
        self.module_mut().set_temperature(true_temp);
        Ok(measured)
    }

    /// Runs a SoftMC program.
    ///
    /// # Errors
    ///
    /// Propagates controller/device errors and injected host-link
    /// faults (the program is dropped before reaching the FPGA, so a
    /// retried run starts from clean state).
    pub fn run(&mut self, program: &Program) -> Result<crate::ExecResult, SoftMcError> {
        self.host_op("program run")?;
        match &self.cancel {
            Some(token) => {
                let token = token.clone();
                self.controller.run_cancellable(program, &token)
            }
            None => self.controller.run(program),
        }
    }

    /// Writes one row through the host data path.
    ///
    /// # Errors
    ///
    /// Propagates device address errors and injected row-I/O faults
    /// (the write is dropped before reaching the device).
    pub fn write_row(&mut self, bank: BankId, row: RowAddr, data: &[u8]) -> Result<(), SoftMcError> {
        self.row_io("row write")?;
        self.module_mut().write_row_direct(bank, row, data)?;
        Ok(())
    }

    /// Reads one row through the host data path.
    ///
    /// # Errors
    ///
    /// Propagates device address errors and injected row-I/O faults.
    pub fn read_row(&mut self, bank: BankId, row: RowAddr) -> Result<Vec<u8>, SoftMcError> {
        self.row_io("row read")?;
        let data = self.module_mut().read_row_direct(bank, row)?;
        Ok(data)
    }

    /// Bulk double-sided hammer at the module's standard timings unless
    /// overridden.
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
        t_on: Option<Picos>,
        t_off: Option<Picos>,
    ) -> Result<(), SoftMcError> {
        self.host_op("double-sided hammer")?;
        let timing = self.module().config().timing;
        self.controller.hammer_double_sided(
            bank,
            left,
            right,
            count,
            t_on.unwrap_or(timing.t_ras),
            t_off.unwrap_or(timing.t_rp),
        )
    }

    /// Bulk single-sided hammer at standard timings unless overridden.
    ///
    /// # Errors
    ///
    /// Propagates device address errors.
    pub fn hammer_single_sided(
        &mut self,
        bank: BankId,
        aggressor: RowAddr,
        count: u64,
        t_on: Option<Picos>,
        t_off: Option<Picos>,
    ) -> Result<(), SoftMcError> {
        self.host_op("single-sided hammer")?;
        let timing = self.module().config().timing;
        self.controller.hammer_single_sided(
            bank,
            aggressor,
            count,
            t_on.unwrap_or(timing.t_ras),
            t_off.unwrap_or(timing.t_rp),
        )
    }
}

/// Records one fired infrastructure fault: where it was intercepted,
/// the operation it dropped, and the surfaced error.
fn note_injected_fault(stage: &'static str, op: &str, err: &SoftMcError) {
    rh_obs::counter(names::SOFTMC_FAULT_INJECTED, 1);
    rh_obs::event!(names::SOFTMC_FAULT_EVENT, stage = stage, op = op, error = err.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reaches_paper_temperatures() {
        let mut b = TestBench::new(Manufacturer::A, 3);
        let reached = b.set_temperature(85.0).unwrap();
        assert!((reached - 85.0).abs() <= 0.1);
        // Physics follows the true plant temperature, not the reading.
        assert_eq!(
            b.module().model().temperature(),
            b.temperature_controller().true_temperature()
        );
        assert!((b.module().model().temperature() - 85.0).abs() <= 0.3);
    }

    #[test]
    fn bench_for_inventory_module() {
        let modules = rh_dram::tested_modules();
        let b = TestBench::for_module(&modules[0]);
        assert_eq!(b.manufacturer(), Manufacturer::A);
        assert_eq!(b.module_seed(), modules[0].seed());
    }

    #[test]
    fn hammering_through_bench_flips_bits() {
        let mut b = TestBench::new(Manufacturer::B, 11);
        b.set_temperature(75.0).unwrap();
        let bank = BankId(0);
        let row_bytes = b.module().row_bytes();
        for r in 4998..=5002u32 {
            b.module_mut().write_row_direct(bank, RowAddr(r), &vec![0u8; row_bytes]).unwrap();
        }
        b.hammer_double_sided(bank, RowAddr(4999), RowAddr(5001), 400_000, None, None).unwrap();
        let victim = b.module_mut().read_row_direct(bank, RowAddr(5000)).unwrap();
        let flips: u32 = victim.iter().map(|x| x.count_ones()).sum();
        assert!(flips > 0, "400K hammers on Mfr. B should flip bits");
    }

    #[test]
    fn same_seed_same_bench_behavior() {
        let flips = |seed: u64| {
            let mut b = TestBench::new(Manufacturer::C, seed);
            b.set_temperature(75.0).unwrap();
            let bank = BankId(1);
            let row_bytes = b.module().row_bytes();
            for r in 98..=102u32 {
                b.module_mut()
                    .write_row_direct(bank, RowAddr(r), &vec![0u8; row_bytes])
                    .unwrap();
            }
            b.hammer_double_sided(bank, RowAddr(99), RowAddr(101), 500_000, None, None).unwrap();
            b.module_mut().read_row_direct(bank, RowAddr(100)).unwrap()
        };
        assert_eq!(flips(9), flips(9));
    }

    #[test]
    fn dead_module_fault_surfaces_through_bench_ops() {
        let plan = crate::FaultPlan::dead_module(1, 2);
        let mut b = TestBench::new(Manufacturer::A, 3).with_faults(&plan);
        b.set_temperature(75.0).unwrap();
        let bank = BankId(0);
        let row_bytes = b.module().row_bytes();
        b.write_row(bank, RowAddr(10), &vec![0u8; row_bytes]).unwrap();
        b.read_row(bank, RowAddr(10)).unwrap();
        let e = b.hammer_single_sided(bank, RowAddr(10), 1, None, None).unwrap_err();
        assert_eq!(e, SoftMcError::Unresponsive { after_ops: 2 });
    }

    #[test]
    fn inert_plan_changes_nothing() {
        let run = |plan: Option<crate::FaultPlan>| {
            let mut b = TestBench::new(Manufacturer::B, 17);
            if let Some(p) = plan {
                b.install_faults(&p);
            }
            b.set_temperature(75.0).unwrap();
            let bank = BankId(0);
            let row_bytes = b.module().row_bytes();
            for r in 198..=202u32 {
                b.write_row(bank, RowAddr(r), &vec![0u8; row_bytes]).unwrap();
            }
            b.hammer_double_sided(bank, RowAddr(199), RowAddr(201), 300_000, None, None)
                .unwrap();
            b.read_row(bank, RowAddr(200)).unwrap()
        };
        assert_eq!(run(None), run(Some(crate::FaultPlan::none(5))));
    }

    #[test]
    fn cancelled_token_unwinds_bench_ops() {
        let token = crate::CancelToken::new();
        let mut b = TestBench::new(Manufacturer::A, 3);
        b.set_cancel_token(token.clone());
        b.set_temperature(75.0).unwrap();
        token.cancel();
        let e = b.set_temperature(80.0).unwrap_err();
        assert!(matches!(e, SoftMcError::Cancelled { .. }), "{e}");
        let e = b
            .hammer_single_sided(BankId(0), RowAddr(10), 1, None, None)
            .unwrap_err();
        assert!(matches!(e, SoftMcError::Cancelled { .. }), "{e}");
        assert!(!e.is_transient());
    }

    #[test]
    fn hang_without_token_degrades_to_unresponsive() {
        let plan = crate::FaultPlan::hung_module(1, 1);
        let mut b = TestBench::new(Manufacturer::A, 3).with_faults(&plan);
        let row_bytes = b.module().row_bytes();
        b.write_row(BankId(0), RowAddr(10), &vec![0u8; row_bytes]).unwrap();
        let e = b.read_row(BankId(0), RowAddr(10)).unwrap_err();
        assert!(matches!(e, SoftMcError::Unresponsive { .. }), "{e}");
    }

    #[test]
    fn hang_with_token_blocks_until_cancelled() {
        let plan = crate::FaultPlan::hung_module(1, 0);
        let token = crate::CancelToken::new();
        let mut b = TestBench::new(Manufacturer::A, 3).with_faults(&plan);
        b.set_cancel_token(token.clone());
        let canceller = std::thread::spawn({
            let token = token.clone();
            move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                token.cancel();
            }
        });
        let start = std::time::Instant::now();
        let e = b.hammer_single_sided(BankId(0), RowAddr(10), 1, None, None).unwrap_err();
        assert!(matches!(e, SoftMcError::Cancelled { .. }), "{e}");
        assert!(start.elapsed() >= std::time::Duration::from_millis(15), "actually wedged");
        canceller.join().unwrap();
    }

    #[test]
    fn forced_settle_failure_reports_requested_target() {
        let mut plan = crate::FaultPlan::none(9);
        plan.settle_fail_prob = 1.0;
        let mut b = TestBench::new(Manufacturer::C, 21).with_faults(&plan);
        match b.set_temperature(80.0).unwrap_err() {
            SoftMcError::TemperatureUnstable { target, .. } => assert_eq!(target, 80.0),
            other => panic!("unexpected error {other}"),
        }
    }
}
