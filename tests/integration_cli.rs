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

#[test]
fn fuel_bounds_a_runaway_program_with_a_timeout() {
    let out = sxr(&["--fuel", "100000", "-e", "(define (f) (f)) (f)"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("instruction budget exhausted"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Enough fuel: the program runs to its value.
    let out = sxr(&["--fuel", "100000", "-e", "(fx+ 20 22)"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "42\n");

    let out = sxr(&["--fuel", "lots", "-e", "1"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn runaway_recursion_is_a_stack_overflow_not_a_host_abort() {
    // At the default depth limit.
    let out = sxr(&["-e", "(define (f n) (fx+ 1 (f n))) (f 0)"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("stack overflow"), "{stderr}");

    // `guard` catches it; `--max-depth` moves the limit.
    let depth = "(define (d n) (if (fx= n 0) 0 (fx+ 1 (d (fx- n 1)))))";
    let probe = format!("{depth} (display (guard (c (#t (condition-kind c))) (d 50)))");
    for (limit, expect) in [("10", "stack-overflow"), ("100", "50")] {
        let out = sxr(&["--max-depth", limit, "-e", &probe]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expect,
            "limit {limit}"
        );
    }

    let out = sxr(&["--max-depth", "deep", "-e", "1"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn source_nested_past_the_reader_limit_is_an_error_not_a_host_abort() {
    // Three million levels: far past any stack, were the reader to recurse.
    let n = 3_000_000;
    let path = std::env::temp_dir().join(format!("sxr-deep-nesting-{}.scm", std::process::id()));
    std::fs::write(&path, format!("(quote {}{})", "(".repeat(n), ")".repeat(n))).unwrap();
    let out = sxr(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("parse error at 1:32775: data nested more than 32768 levels deep"),
        "{stderr}"
    );
}

#[test]
fn a_forged_rep_id_is_a_bad_rep_operation_not_a_panic() {
    let out = sxr(&[
        "--mode",
        "noopt",
        "-e",
        "(%rep-set! rep-type-rep fixnum-rep 0 (%rep-inject fixnum-rep 99999)) \
         (%rep-inject fixnum-rep 1)",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("unknown representation id"), "{stderr}");
}

#[test]
fn dis_names_only_procedures_the_program_reaches() {
    // A library procedure the program never names is not compiled.
    let out = sxr(&["--dis", "vector-ref", "-e", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("no procedure named `vector-ref` is defined or reached"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());

    let out = sxr(&[
        "--dis",
        "vector-ref",
        "-e",
        "(vector-ref (make-vector 1 7) 0)",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with(";; vector-ref (arity 2"), "{stdout}");
}
