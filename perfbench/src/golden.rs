//! Checked-in output digests at the benchmark seed (`golden/*.json`).
//!
//! Every workload reduces its outputs to one FNV-1a digest per item —
//! a `repro` target, a characterized module, a fleet job — and checks
//! each against the golden file of its workload. A missing, extra or
//! differing item is one failed operation.

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Item name -> 16-hex-digit digest.
pub type Digests = BTreeMap<String, String>;

/// The digest of `bytes`, as stored in golden files.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", rh_core::fnv1a64(bytes))
}

/// The golden file of `workload` under the checkout at `root`.
#[must_use]
pub fn path(root: &Path, workload: &str) -> PathBuf {
    root.join("perfbench")
        .join("golden")
        .join(format!("{workload}.json"))
}

/// Loads a golden file: one JSON object of item -> digest.
///
/// # Errors
///
/// Unreadable file or malformed content.
pub fn load(path: &Path) -> Result<Digests, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("golden {}: {e}", path.display()))?;
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("golden {}: {e}", path.display()))?;
    let Value::Object(pairs) = value else {
        return Err(format!("golden {}: not a JSON object", path.display()));
    };
    pairs
        .into_iter()
        .map(|(k, v)| match v {
            Value::Str(d) => Ok((k, d)),
            _ => Err(format!(
                "golden {}: digest of {k} is not a string",
                path.display()
            )),
        })
        .collect()
}

/// Writes a golden file, items sorted by name.
///
/// # Errors
///
/// Serialization or I/O errors.
pub fn save(path: &Path, digests: &Digests) -> Result<(), String> {
    let value = Value::Object(
        digests
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    );
    let text = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("golden {}: {e}", path.display()))
}

/// Checks the digests a run produced against the golden ones. `items`
/// are the operations attempted; the result holds one message per
/// failed operation, so its length never exceeds `items.len()`.
#[must_use]
pub fn check(golden: &Digests, items: &[String], got: &[(String, String)]) -> Vec<String> {
    let mut failures = Vec::new();
    for item in items {
        let produced: Vec<&String> = got
            .iter()
            .filter(|(name, _)| name == item)
            .map(|(_, d)| d)
            .collect();
        let failure = match (golden.get(item), produced.as_slice()) {
            (_, []) => Some(format!("{item}: no output")),
            (_, [_, _, ..]) => Some(format!("{item}: {} outputs", produced.len())),
            (None, [_]) => Some(format!("{item}: no golden digest")),
            (Some(want), [d]) if want != *d => {
                Some(format!("{item}: digest {d} differs from golden {want}"))
            }
            _ => None,
        };
        failures.extend(failure);
    }
    failures
}

/// The digest of one line of `repro --json` output, keyed by target.
///
/// `attack2` is digested by its deterministic fields only:
/// `rh_attack::trigger::build_trigger` picks among equally narrow cells
/// in `HashMap` order, so the trigger's row, byte and bit change from
/// run to run; the profiled cell count, the narrow fraction and the
/// trigger's width do not.
///
/// # Errors
///
/// A line that is not a `{"target", "data"}` object.
pub fn target_digest(line: &str) -> Result<(String, String), String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad output line: {e}"))?;
    let target = value
        .field("target")
        .as_str()
        .ok_or_else(|| "output line without a target".to_string())?
        .to_string();
    let d = if target == "attack2" {
        let data = value.field("data");
        let trigger = data.field("trigger");
        let width = match (
            trigger.field("t_hi").as_f64(),
            trigger.field("t_lo").as_f64(),
        ) {
            (Some(hi), Some(lo)) => (hi - lo).to_string(),
            _ => "none".to_string(),
        };
        digest(
            format!(
                "cells_profiled={};narrow_fraction={};trigger_width={width}",
                data.field("cells_profiled"),
                data.field("narrow_fraction")
            )
            .as_bytes(),
        )
    } else {
        digest(line.as_bytes())
    };
    Ok((target, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Digests {
        [("a", "01"), ("b", "02")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn items() -> Vec<String> {
        vec!["a".to_string(), "b".to_string()]
    }

    #[test]
    fn matching_digests_pass() {
        let got = vec![
            ("b".to_string(), "02".to_string()),
            ("a".to_string(), "01".to_string()),
        ];
        assert!(check(&golden(), &items(), &got).is_empty());
    }

    #[test]
    fn each_missing_or_differing_item_is_one_failure() {
        let got = vec![("a".to_string(), "ff".to_string())];
        let failures = check(&golden(), &items(), &got);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("differs"));
        assert!(failures[1].contains("no output"));
    }

    #[test]
    fn attack2_ignores_which_equally_narrow_cell_won() {
        let line = |row: u32, bit: u8| {
            format!(
                "{{\"target\":\"attack2\",\"data\":{{\"trigger\":{{\"row\":{row},\"byte\":3,\"bit\":{bit},\"t_lo\":70.0,\"t_hi\":70.0,\"hammers\":150000}},\"cells_profiled\":477,\"narrow_fraction\":0.63}}}}"
            )
        };
        assert_eq!(target_digest(&line(1260, 7)), target_digest(&line(1200, 5)));
        let wider = line(1260, 7).replace("\"t_hi\":70.0", "\"t_hi\":75.0");
        assert_ne!(target_digest(&line(1260, 7)), target_digest(&wider));
    }

    #[test]
    fn other_targets_digest_the_whole_line() {
        let a = target_digest("{\"target\":\"fig4\",\"data\":[1]}").unwrap();
        let b = target_digest("{\"target\":\"fig4\",\"data\":[2]}").unwrap();
        assert_eq!(a.0, "fig4");
        assert_ne!(a.1, b.1);
    }
}
