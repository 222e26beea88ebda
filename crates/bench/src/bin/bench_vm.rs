//! `bench_vm` — the interpreter's wall-clock measurement harness.
//!
//! Runs every suite benchmark under every pipeline configuration N times on
//! fresh machines, prints a median/mean table, and writes the
//! machine-readable `BENCH_vm.json` (schema `sxr-bench-vm/v3`).
//!
//! Regenerate the checked-in numbers with:
//!
//! ```text
//! cargo run --release -p sxr-bench --bin bench_vm -- --iters 15 --out BENCH_vm.json
//! ```
//!
//! Flags: `--iters N` (timed runs per benchmark×config, default 15),
//! `--out PATH` (default `BENCH_vm.json`; `-` prints JSON to stdout only).

use sxr_bench::{measure_suite, suite_json};

fn usage() -> ! {
    eprintln!("usage: bench_vm [--iters N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut iters: usize = 15;
    let mut out_path = String::from("BENCH_vm.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    eprintln!("bench_vm: {iters} timed iterations per benchmark x config");
    let measurements = measure_suite(iters);

    println!(
        "{:<8} {:<15} {:>12} {:>12} {:>12} {:>12} {:>5} {:>3}",
        "bench", "config", "median", "mean", "min", "instrs", "GCs", "ok"
    );
    println!("{}", "-".repeat(86));
    for m in &measurements {
        println!(
            "{:<8} {:<15} {:>10.3?} {:>10.3?} {:>10.3?} {:>12} {:>5} {:>3}",
            m.name,
            m.config,
            m.median,
            m.mean,
            m.min,
            m.counters.total,
            m.counters.gc_count,
            if m.ok { "yes" } else { "NO" },
        );
    }

    let bad: Vec<&str> = measurements
        .iter()
        .filter(|m| !m.ok)
        .map(|m| m.name.as_str())
        .collect();

    let json = suite_json(iters, &measurements);
    if out_path == "-" {
        print!("{json}");
    } else {
        std::fs::write(&out_path, json).unwrap_or_else(|e| {
            eprintln!("bench_vm: cannot write {out_path}: {e}");
            std::process::exit(1);
        });
        eprintln!("bench_vm: wrote {out_path}");
    }

    if !bad.is_empty() {
        eprintln!("bench_vm: ORACLE MISMATCH in: {}", bad.join(", "));
        std::process::exit(1);
    }
}
