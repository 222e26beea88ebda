//! A compiler explorer for the reproduction: show, side by side, what each
//! pipeline configuration makes of a primitive or a snippet.
//!
//! Usage:
//!   cargo run --example compiler_explorer                 # defaults to car
//!   cargo run --example compiler_explorer -- fx+          # a primitive
//!   cargo run --example compiler_explorer -- my-fn '(define (my-fn x) (car (cdr x)))'
//!
//! Without a source, the program is `(begin NAME 0)`: a compile keeps only
//! the library procedures the program names or reaches.

use sxr::{Compiler, PipelineConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args
        .first()
        .map(String::as_str)
        .unwrap_or("car")
        .to_string();
    let source = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| format!("(begin {name} 0)"));

    for (label, cfg) in [
        (
            "Traditional (hand-written intrinsic expansion)",
            PipelineConfig::traditional(),
        ),
        (
            "AbstractOpt (library code + general optimizer)",
            PipelineConfig::abstract_optimized(),
        ),
        (
            "AbstractNoOpt (library code, optimizer off)",
            PipelineConfig::abstract_unoptimized(),
        ),
    ] {
        let compiled = Compiler::new(cfg).compile(&source).expect("compiles");
        println!("==== {label}");
        match compiled.disassemble(&name) {
            Some(text) => println!("{text}"),
            None => println!("  (no procedure named `{name}`)\n"),
        }
    }

    let compiled = Compiler::new(PipelineConfig::abstract_optimized())
        .compile(&source)
        .expect("compiles");
    let r = &compiled.opt_report;
    println!(
        "optimizer report: {} rounds, {} inlines, {} algebraic rewrites, {} CSE hits, {} cleanups",
        r.rounds, r.inlined, r.bit_rewrites, r.cse_hits, r.cleaned
    );
}
