//! The `experiments` binary checks every experiment name before it runs
//! anything.

use std::process::Command;

#[test]
fn unknown_name_exits_before_running_anything() {
    let artifact = std::env::temp_dir().join(format!(
        "experiments-unknown-name-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&artifact);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e1", "bogus", "--json"])
        .arg(&artifact)
        .output()
        .expect("run the experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown experiment 'bogus'"), "{stderr}");
    // E1 prints its table to stdout and its timing line to stderr.
    assert!(out.stdout.is_empty(), "E1 ran before the name check");
    assert!(!stderr.contains("[e1:"), "E1 ran before the name check");
    assert!(!artifact.exists(), "no artifact for a refused command");
}
