//! Input nested far past the parsers' depth caps — a result set of
//! 50,000 nested arrays, an assertion inside 50,000 parentheses — makes
//! `doall` exit 2 with a located error, never overflow its stack
//! (exit 134).

use std::path::PathBuf;
use std::process::{Command, Output};

const DEPTH: usize = 50_000;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("doall_deep_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn doall(args: &[&std::ffi::OsStr]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_doall"))
        .args(args)
        .output()
        .expect("spawn doall")
}

#[test]
fn deeply_nested_result_set_exits_2() {
    let dir = scratch_dir("json");
    let path = dir.join("deep.json");
    let records = format!("{}{}", "[".repeat(DEPTH), "]".repeat(DEPTH));
    std::fs::write(&path, format!("{{\"records\": {records}}}")).unwrap();
    let output = doall(&["compare".as_ref(), path.as_os_str(), path.as_os_str()]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("JSON error at byte") && stderr.contains("nesting deeper than"),
        "{stderr}"
    );
}

#[test]
fn deeply_nested_assertion_exits_2() {
    let dir = scratch_dir("scn");
    std::fs::write(
        dir.join("deep.scn"),
        format!(
            "id = deep\ngrid = algos=none shapes=2x2\nassert {}work{} >= 1\n",
            "(".repeat(DEPTH),
            ")".repeat(DEPTH)
        ),
    )
    .unwrap();
    let output = doall(&["test".as_ref(), "--suite".as_ref(), dir.as_os_str()]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("deep.scn")
            && stderr.contains("line 3")
            && stderr.contains("nested deeper than"),
        "{stderr}"
    );
}
