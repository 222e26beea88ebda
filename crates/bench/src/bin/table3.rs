//! Table 3 — ablation: dynamic instruction inflation when each optimizer
//! pass is disabled in turn (relative to the full AbstractOpt pipeline).
//!
//! Regenerate with: `cargo run -p sxr-bench --bin table3`

use sxr::{Compiler, OptOptions, PipelineConfig};
use sxr_bench::BENCHMARKS;

fn main() {
    println!("Table 3: instruction-count inflation with one pass disabled (1.00 = full pipeline)");
    println!();
    print!("{:<8} {:>12}", "bench", "full");
    for p in OptOptions::PASSES {
        print!(" {:>10}", format!("-{p}"));
    }
    println!();
    println!("{}", "-".repeat(8 + 12 + OptOptions::PASSES.len() * 11));
    let mut prods = vec![1.0f64; OptOptions::PASSES.len()];
    for b in BENCHMARKS {
        let full = Compiler::new(PipelineConfig::abstract_optimized())
            .compile(b.source)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(full.value, b.expect, "{} oracle", b.name);
        print!("{:<8} {:>12}", b.name, full.counters.total);
        for (i, pass) in OptOptions::PASSES.iter().enumerate() {
            let ablated = Compiler::new(PipelineConfig::ablated(pass))
                .compile(b.source)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(ablated.value, b.expect, "{} oracle (-{pass})", b.name);
            let ratio = ablated.counters.total as f64 / full.counters.total as f64;
            prods[i] *= ratio;
            print!(" {:>10.2}", ratio);
        }
        println!();
    }
    println!("{}", "-".repeat(8 + 12 + OptOptions::PASSES.len() * 11));
    print!("{:<8} {:>12}", "geomean", "");
    let n = BENCHMARKS.len() as f64;
    for p in &prods {
        print!(" {:>10.2}", p.powf(1.0 / n));
    }
    println!();
}
