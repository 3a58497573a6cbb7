//! Defense engineering with the §8.2 insights: evaluate the classic
//! defense roster against a double-sided attack, price the
//! dual-threshold configuration of Improvement 1, and run the
//! subarray-sampled fast profiler of Improvement 2.
//!
//! ```sh
//! cargo run --release --example defense_tuning
//! ```

use rh_core::{Characterizer, Scale};
use rh_defense::{
    blockhammer_area_pct, graphene_area_pct, profiling, sim::DefenseSim, traits::NoDefense,
    BlockHammer, Defense, Graphene, Para, TargetRowRefresh, ThresholdConfig,
};
use rowhammer_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1) Attack-vs-defense matrix on one module.
    println!("double-sided attack, 150 K hammers, Mfr. B:");
    let defenses: Vec<Box<dyn Defense>> = vec![
        Box::new(NoDefense),
        Box::new(Para::new(0.002, 7)),
        Box::new(Graphene::new(8_000, 1_300_000)),
        Box::new(BlockHammer::new(4_000, 64_000_000_000, 5)),
        Box::new(TargetRowRefresh::new(4, 2)),
    ];
    for mut d in defenses {
        let mut bench = TestBench::new(Manufacturer::B, 99);
        bench.set_temperature(75.0)?;
        let mut sim = DefenseSim::new(bench);
        let o = sim.run_many_sided(d.as_mut(), RowAddr(5000), 1, 150_000, None)?;
        println!(
            "  {:<12} flips {:>4}  refreshes {:>6}  throttle {:>7.2} ms",
            o.defense,
            o.victim_flips,
            o.refreshes,
            o.throttle_delay as f64 / 1e9
        );
    }

    // 2) Improvement 1: price the dual-threshold configuration.
    let uni = ThresholdConfig::uniform_worst_case();
    let dual = ThresholdConfig::dual_obsv12();
    println!(
        "\narea: Graphene {:.2}% → {:.2}%, BlockHammer {:.2}% → {:.2}% of the die",
        graphene_area_pct(uni),
        graphene_area_pct(dual),
        blockhammer_area_pct(uni),
        blockhammer_area_pct(dual)
    );

    // 3) Improvement 2: fast profiling by subarray sampling.
    let bench = TestBench::new(Manufacturer::C, 61);
    let mut ch = Characterizer::new(bench, Scale::Smoke)?;
    let fp = profiling::fast_profile(&mut ch, 4, 4)?;
    println!(
        "\nfast profile: {} subarrays sampled, model R² {:.2}, speedup {:.0}×",
        fp.profiled.len(),
        fp.model.r2,
        fp.speedup()
    );
    println!(
        "held-out subarray: predicted min HCfirst {:.0} vs measured {:.0}",
        fp.predicted_min, fp.measured_min
    );
    Ok(())
}
