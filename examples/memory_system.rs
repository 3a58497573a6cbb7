//! The production-side view: a request-level memory controller serving
//! a benign workload while a RowHammer defense watches the activation
//! stream, and the same controller carrying an attack expressed as
//! ordinary memory requests.
//!
//! ```sh
//! cargo run --release --example memory_system
//! ```

use rowhammer_repro::prelude::*;
use rowhammer_repro::defense::{traits::as_hook, Graphene, Para};
use rowhammer_repro::dram::{count_flips, DramModule};
use rowhammer_repro::faultmodel::RowHammerModel;
use rowhammer_repro::softmc::{ActivationHook, MemController, MemRequest, RowPolicy};

fn benign_stream(n: u64) -> Vec<MemRequest> {
    let mut state = 0xDEAD_BEEF_u64;
    let mut unit = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = [2000u32; 8];
    (0..n)
        .map(|i| {
            let bank = (i % 8) as u32;
            if unit() > 0.7 {
                rows[bank as usize] = 2000 + (unit() * 4096.0) as u32;
            }
            MemRequest {
                id: i,
                bank: BankId(bank),
                row: RowAddr(rows[bank as usize]),
                column: (i % 64) as u32,
                is_write: i % 5 == 0,
                arrival: i * 4_000,
            }
        })
        .collect()
}

fn run(policy: RowPolicy, hook: Option<ActivationHook>) -> rowhammer_repro::softmc::MemStats {
    let module = DramModule::new(ModuleConfig::ddr4(Manufacturer::D));
    let mut mc = MemController::new(module, policy);
    if let Some(h) = hook {
        mc.set_hook(h);
    }
    for r in benign_stream(100_000) {
        mc.submit(r).expect("in-range bank");
    }
    mc.drain()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("benign workload, 100K requests, 70% locality:");
    for (name, policy, hook) in [
        ("open page", RowPolicy::OpenPage, None::<ActivationHook>),
        ("closed page", RowPolicy::ClosedPage, None),
        ("capped open (Imp. 5)", RowPolicy::CappedOpen { cap: 3 * 34_500 }, None),
        ("open + PARA", RowPolicy::OpenPage, Some(as_hook(Para::new(0.002, 7)))),
        ("open + Graphene", RowPolicy::OpenPage, Some(as_hook(Graphene::new(32_000, 1_300_000)))),
    ] {
        let s = run(policy, hook);
        println!(
            "  {:<22} mean latency {:>9.1} ns   hit rate {:>5.1}%   hook refreshes {:>5}",
            name,
            s.mean_latency() / 1000.0,
            s.hit_rate() * 100.0,
            s.hook_refreshes
        );
    }

    // An attack expressed as ordinary requests through the same
    // controller: double-sided hammering of physical row 5000, on a
    // module carrying the calibrated fault model.
    println!("\nattack traffic through the controller (Mfr. B module):");
    let module = DramModule::with_model(
        ModuleConfig::ddr4(Manufacturer::B),
        Box::new(RowHammerModel::new(Manufacturer::B, 99)),
    );
    let mapping = module.config().mapping;
    let mut mc = MemController::new(module, RowPolicy::ClosedPage);
    mc.module_mut().set_temperature(75.0);
    let victim = RowAddr(5000);
    let row_bytes = mc.module().row_bytes();
    for d in -2i64..=2 {
        let logical = mapping.physical_to_logical(victim.offset(d));
        mc.module_mut().write_row_direct(BankId(0), logical, &vec![0u8; row_bytes])?;
    }
    let (left, right) = (
        mapping.physical_to_logical(victim.offset(-1)),
        mapping.physical_to_logical(victim.offset(1)),
    );
    for i in 0..300_000u64 {
        mc.submit(MemRequest {
            id: i,
            bank: BankId(0),
            row: if i % 2 == 0 { left } else { right },
            column: 0,
            is_write: false,
            arrival: i * 51_000,
        })?;
    }
    mc.drain();
    let data =
        mc.module_mut().read_row_direct(BankId(0), mapping.physical_to_logical(victim))?;
    let flips = count_flips(&data, &vec![0u8; row_bytes]);
    println!("  150K double-sided hammers as plain requests -> {flips} bit flips in the victim");
    Ok(())
}
