//! Command-line contract of the `figures` binary.

use std::process::Command;

/// A misspelled keyword must fail fast with a usage line, not exit 0
/// having regenerated nothing.
#[test]
fn unknown_keyword_exits_2_with_usage_before_simulating() {
    let dir = std::env::temp_dir().join(format!("grid3-figures-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["gkload", "hat"])
        .current_dir(&dir)
        .output()
        .expect("figures runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown keyword `hat`"), "{stderr}");
    assert!(stderr.contains("usage: figures"), "{stderr}");
    for keyword in ["fig2", "table1", "variance", "ablation", "heat", "ops"] {
        assert!(stderr.contains(keyword), "usage lists {keyword}: {stderr}");
    }
    assert!(
        out.stdout.is_empty(),
        "no artifact rendered before the check"
    );
    assert!(!dir.join("results").exists(), "no run started");
    std::fs::remove_dir_all(&dir).ok();
}
