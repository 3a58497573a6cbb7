//! `rh-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the root of a checkout. The last line of standard output
//! is the JSON result: `correct`, `attempted`, `failed`, `metrics`.
//! `--inject digest-mismatch|failing-target|kill-worker` adds a
//! deliberate fault; `--write-goldens` regenerates `perfbench/golden/`.
//! `--rep NAME` is the per-repetition child mode the benchmark re-runs
//! itself in.

use rh_perfbench::{Env, Inject, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: rh-perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--inject digest-mismatch|failing-target|kill-worker]\n       rh-perfbench --write-goldens",
        names.join("|")
    )
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rh-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<(), String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = None;
    let mut trace = false;
    let mut inject = None;
    let mut rep = None;
    let mut traced = false;
    let mut write_goldens = false;
    let mut root = None;
    let mut repro = None;
    let mut scratch = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{a} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--inject" => {
                let v = value()?;
                inject = Some(Inject::parse(&v).ok_or_else(|| format!("unknown fault '{v}'"))?);
            }
            "--write-goldens" => write_goldens = true,
            "--rep" => rep = Some(value()?),
            "--traced" => traced = true,
            "--root" => root = Some(PathBuf::from(value()?)),
            "--repro" => repro = Some(PathBuf::from(value()?)),
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }

    if let Some(name) = rep {
        let (Some(root), Some(repro), Some(scratch)) = (root, repro, scratch) else {
            return Err("--rep needs --root, --repro and --scratch".to_string());
        };
        let env = Env {
            root,
            repro,
            scratch,
        };
        let result = rh_perfbench::rep_child(&env, &name, seed, traced, inject)?;
        println!("{}", result.to_json());
        return Ok(());
    }

    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if write_goldens {
        return rh_perfbench::write_goldens(&cwd);
    }
    let (Some(workload), Some(seconds)) = (workload, seconds) else {
        return Err(usage());
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        inject,
    };
    let outcome = rh_perfbench::run(&cwd, &opts)?;
    if let Some(table) = &outcome.table {
        print!("{table}");
    }
    println!("{}", outcome.result_line());
    Ok(())
}
