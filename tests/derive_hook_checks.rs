//! A scenario whose `derive` hook cannot handle one of its grid
//! algorithms is rejected when the suite loads: `doall test` exits 2
//! and names the scenario file and line, before any cell runs — never
//! a panic (exit 101) from inside the hook.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes a one-scenario suite pairing `hook` with `algo` and runs
/// `doall test` over it in a fresh process.
fn run_pair(hook: &str, algo: &str) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "doall_hook_{hook}_{}_{}",
        algo.replace(':', "_"),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("pair.scn"),
        format!(
            "id = pair\n\
             grid = algos={algo} advs=unit shapes=4x8 ds=1 seeds=1 seed=0\n\
             derive = {hook}\n"
        ),
    )
    .unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_doall"))
        .arg("test")
        .arg("--suite")
        .arg(&dir)
        .output()
        .expect("spawn doall");
    (output, dir)
}

fn assert_rejected(hook: &str, algo: &str) {
    let (output, dir) = run_pair(hook, algo);
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("pair.scn: line 2:"), "{stderr}");
    assert!(
        stderr.contains(&format!("`{hook}` cannot handle algorithm `{algo}`")),
        "{stderr}"
    );
}

#[test]
fn contention_lemmas_rejects_paran1() {
    assert_rejected("contention_lemmas", "paran1");
}

#[test]
fn dcont_lemma_rejects_soloall() {
    assert_rejected("dcont_lemma", "soloall");
}

#[test]
fn dcont_list_rejects_da() {
    assert_rejected("dcont_list", "da:3");
}

#[test]
fn da_bound_rejects_padet() {
    assert_rejected("da_bound", "padet");
}

#[test]
fn da_epsilon_rejects_oblido() {
    assert_rejected("da_epsilon", "oblido");
}

#[test]
fn dcont_threshold_runs_on_any_algorithm() {
    let (output, dir) = run_pair("dcont_threshold", "soloall");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
