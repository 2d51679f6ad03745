//! Shapes whose per-processor state could never be allocated make
//! `doall` exit 2 with an error naming the shape, instead of aborting
//! mid-allocation (exit 134).

use std::process::Command;

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
            let output = Command::new(env!("CARGO_BIN_EXE_doall"))
                .args(&args)
                .output()
                .expect("spawn doall");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(&format!("`{shape}`")), "{args:?}: {stderr}");
        }
    }
}
