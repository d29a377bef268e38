//! End-to-end observability contract (§ DESIGN.md 5g): running a figure
//! binary with `RDO_OBS` pointed at a JSONL sink must leave experiment
//! stdout bitwise identical to a run with observability disabled, and
//! the sink must hold a parsable event stream with live device and VAWO
//! counters.

use std::path::Path;
use std::process::{Command, Output};

/// Drops the one line that reports a wall-clock measurement — it varies
/// run to run with or without observability, so it is excluded from the
/// bitwise comparison (the accuracy table and JSON output are not).
fn stable_stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.contains("wall-clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_fig5a(dir: &Path, obs: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig5a"));
    cmd.current_dir(dir)
        .env("RDO_SCALE", "fast")
        .env("RDO_THREADS", "1")
        .env("RDO_CYCLES", "1")
        .env_remove("RDO_OBS")
        .env_remove("RDO_SEED")
        .env_remove("RDO_SIGMA")
        .env_remove("RDO_PWT_EPOCHS");
    if let Some(v) = obs {
        cmd.env("RDO_OBS", v);
    }
    cmd.output().expect("spawn fig5a")
}

#[test]
fn obs_does_not_change_fig5a_stdout() {
    let dir = std::env::temp_dir().join(format!("rdo-obs-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    // The scratch directory starts with an empty checkpoint cache: the
    // plain run trains LeNet and saves it, the observed run loads it. A
    // loaded checkpoint is the trained network bit for bit, so the two
    // stdouts must still match.
    let plain = run_fig5a(&dir, None);
    assert!(plain.status.success(), "plain run failed: {}", String::from_utf8_lossy(&plain.stderr));
    let log = dir.join("obs.jsonl");
    let with_obs = run_fig5a(&dir, Some(log.to_str().expect("utf-8 temp path")));
    assert!(with_obs.status.success(), "observed run failed");

    assert_eq!(
        stable_stdout(&plain),
        stable_stdout(&with_obs),
        "RDO_OBS must not alter experiment stdout"
    );

    let text = std::fs::read_to_string(&log).expect("obs sink written");
    let report = rdo_obs::fold(text.lines());
    assert_eq!(report.malformed, 0, "every JSONL line must parse");
    assert!(report.events > 0, "sink holds events");
    assert!(!report.spans.is_empty(), "span records present");
    for name in ["rram.program.calls", "core.vawo.groups_searched"] {
        let n = report.counters.get(name).copied().unwrap_or(0);
        assert!(n > 0, "counter {name} must be live, got {n}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
