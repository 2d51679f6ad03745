//! Cells whose state could never be allocated or started make `doall`
//! exit 2 with an error naming the shape, instead of aborting
//! mid-allocation (exit 134) or panicking on a refused thread (exit 101).

use std::process::Command;

/// Runs `doall` and returns its exit code and standard error.
fn doall(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_doall"))
        .args(args)
        .output()
        .expect("spawn doall");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn impossible_shapes_exit_2_naming_the_shape() {
    for (p, t) in [(1_000_000u64, 1_000_000u64), (4_000_000_000, 1)] {
        let shape = format!("{p}x{t}");
        let grid = format!("algos=paran1 advs=stage shapes={shape} ds=1 seeds=1");
        let (p, t) = (p.to_string(), t.to_string());
        for args in [
            vec!["sweep", "--grid", &grid],
            vec![
                "simulate", "--algo", "paran1", "-p", &p, "-t", &t, "-d", "1",
            ],
        ] {
            let (code, stderr) = doall(&args);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(&format!("`{shape}`")), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn schedule_lists_past_the_set_up_cap_exit_2_naming_algorithm_and_shape() {
    // p·t = 2³² passes the shape cap, but padet's p lists of [4096] would
    // need 16 GiB.
    let grid = "algos=padet advs=unit shapes=1048576x4096 ds=1 seeds=1";
    for args in [
        vec!["sweep", "--grid", grid],
        vec![
            "simulate", "--algo", "padet", "-p", "1048576", "-t", "4096", "-d", "1",
        ],
    ] {
        let (code, stderr) = doall(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("`padet`"), "{args:?}: {stderr}");
        assert!(stderr.contains("`1048576x4096`"), "{args:?}: {stderr}");
    }
}

#[test]
fn threads_backend_past_its_processor_cap_exits_2_naming_the_shape() {
    let grid = "algos=paran1 advs=unit backends=threads shapes=200000x1 ds=1 seeds=1";
    let (code, stderr) = doall(&["sweep", "--grid", grid]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("`200000x1`"), "{stderr}");
    assert!(stderr.contains("threads backend"), "{stderr}");
}

/// Under the cap, a thread the operating system refuses is an error too:
/// a 1 GB address-space limit leaves room for a few hundred 2 MiB thread
/// stacks, not 1024.
#[cfg(target_os = "linux")]
#[test]
fn refused_threads_exit_2_naming_the_cell() {
    let output = Command::new("sh")
        .args([
            "-c",
            "ulimit -v 1000000 && exec \"$0\" \"$@\"",
            env!("CARGO_BIN_EXE_doall"),
            "sweep",
            "--grid",
            "algos=paran1 advs=unit backends=threads shapes=1024x1 ds=1 seeds=1",
        ])
        .output()
        .expect("spawn sh");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("could not start a thread"), "{stderr}");
    assert!(stderr.contains("p=1024 t=1"), "{stderr}");
}
