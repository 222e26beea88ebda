//! The `sxr` binary's command line: usage errors are exit status 2 with a
//! message, never a panic.

use std::process::{Command, Output};

fn sxr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sxr"))
        .args(args)
        .output()
        .expect("spawn sxr")
}

#[test]
fn ablate_rejects_an_unknown_pass_and_runs_a_known_one() {
    let out = sxr(&["--ablate", "foo", "-e", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("`foo`"), "{stderr}");
    for pass in ["inline", "constfold", "repspec", "bits", "cse", "dce"] {
        assert!(stderr.contains(pass), "message names `{pass}`: {stderr}");
    }

    let out = sxr(&["--ablate", "bits", "-e", "(fx+ 20 22)"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "42\n");
}
