//! Code identity: one 64-bit FNV-1a digest of the emitted program and one
//! of the optimizer's report, for every corpus benchmark under every
//! configuration the tables use (Traditional, AbstractOpt, AbstractNoOpt,
//! and AbstractOpt with each pass disabled in turn).
//!
//! A change that claims to emit the same code proves it by leaving this
//! output unchanged (`crates/bench/golden/code_digest.txt`).
//!
//! Regenerate with: `cargo run -p sxr-bench --bin code_digest`

use std::fmt::Write as _;
use sxr::{Compiler, OptOptions, PipelineConfig};
use sxr_bench::BENCHMARKS;

/// FNV-1a over everything written to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// The digest of a value's `Debug` rendering.
fn digest(parts: &[&dyn std::fmt::Debug]) -> u64 {
    let mut h = Fnv::new();
    for p in parts {
        write!(h, "{p:?};").expect("hashing cannot fail");
    }
    h.0
}

fn main() {
    let mut configs = vec![
        ("Traditional".to_string(), PipelineConfig::traditional()),
        (
            "AbstractOpt".to_string(),
            PipelineConfig::abstract_optimized(),
        ),
        (
            "AbstractNoOpt".to_string(),
            PipelineConfig::abstract_unoptimized(),
        ),
    ];
    for pass in OptOptions::PASSES {
        configs.push((format!("-{pass}"), PipelineConfig::ablated(pass)));
    }
    println!(
        "Code identity: FNV-1a digests of CodeProgram (funs, pool, main, nglobals) and OptReport"
    );
    println!();
    println!(
        "{:<8} {:<14} {:>16} {:>16}",
        "bench", "config", "code", "report"
    );
    for b in BENCHMARKS {
        for (label, config) in &configs {
            let c = Compiler::new(config.clone())
                .compile(b.source)
                .unwrap_or_else(|e| panic!("{} [{label}]: {e}", b.name));
            let code = digest(&[&c.code.funs, &c.code.pool, &c.code.main, &c.code.nglobals]);
            let report = digest(&[&c.opt_report]);
            println!("{:<8} {:<14} {code:016x} {report:016x}", b.name, label);
        }
    }
}
