//! End-to-end tests of the `repro analyze` trace reporter, driving the
//! real binary via `CARGO_BIN_EXE_repro`.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rh-analyze-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

#[test]
fn analyze_reconstructs_a_trace_and_emits_folded_stacks() {
    let dir = tmpdir("analyze");
    let trace = dir.join("trace.jsonl");
    // Two nested spans plus an event, in the recorder's line format.
    // The child ends before (and inside) the parent.
    std::fs::write(
        &trace,
        concat!(
            "{\"ts_us\":1500,\"kind\":\"event\",\"name\":\"softmc.fault\",\"tid\":0,\"fields\":{}}\n",
            "{\"ts_us\":1800,\"kind\":\"span\",\"name\":\"campaign.attempt\",\"elapsed_us\":700,\"tid\":0,\"fields\":{}}\n",
            "{\"ts_us\":2000,\"kind\":\"span\",\"name\":\"campaign.module\",\"elapsed_us\":1000,\"tid\":0,\"fields\":{}}\n",
        ),
    )
    .expect("write trace");

    let folded = dir.join("trace.folded");
    let out = repro()
        .args(["analyze"])
        .arg(&trace)
        .args(["--folded"])
        .arg(&folded)
        .output()
        .expect("run repro analyze");
    assert!(out.status.success(), "analyze failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 spans"), "span count in report: {stdout}");
    assert!(stdout.contains("campaign.module"), "root span named: {stdout}");

    let folded_text = std::fs::read_to_string(&folded).expect("read folded stacks");
    assert!(
        folded_text.contains("campaign.module;campaign.attempt 700"),
        "nested span folded under its parent: {folded_text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_fails_on_spanless_input() {
    let dir = tmpdir("spanless");
    let trace = dir.join("events-only.jsonl");
    std::fs::write(
        &trace,
        "{\"ts_us\":10,\"kind\":\"event\",\"name\":\"dram.flip\",\"tid\":0,\"fields\":{}}\n",
    )
    .expect("write trace");
    let out = repro().arg("analyze").arg(&trace).output().expect("run repro analyze");
    assert!(!out.status.success(), "analyze must exit nonzero on a spanless trace");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no spans"));
    let _ = std::fs::remove_dir_all(&dir);
}
