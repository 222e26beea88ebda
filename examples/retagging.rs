//! Representation policy is library code: swap in a different tagging
//! scheme (different fixnum shift, permuted pointer tags) and nothing else
//! changes — not the compiler, not the GC, not the programs.
//!
//! Run with: `cargo run --example retagging`

use sxr::{Compiler, PipelineConfig, LIBRARY_SCM, PRIMS_ABSTRACT_SCM, REPS_SCM};

/// Same roles, different numbers everywhere: fixnums shifted by 4,
/// pointer tags permuted, immediates sub-tagged differently.
const ALT_REPS: &str = r#"
(define fixnum-rep      (%make-immediate-type 'fixnum 3 0 4))
(define boolean-rep     (%make-immediate-type 'boolean 9 2 9))
(define char-rep        (%make-immediate-type 'char 9 10 9))
(define null-rep        (%make-immediate-type 'null 9 18 9))
(define unspecified-rep (%make-immediate-type 'unspecified 9 26 9))
(define eof-rep         (%make-immediate-type 'eof 9 34 9))
(define string-rep      (%make-pointer-type 'string 1 #f))
(define symbol-rep      (%make-pointer-type 'symbol 3 #f))
(define rep-type-rep    (%make-pointer-type 'rep-type 4 #t))
(define box-rep         (%make-pointer-type 'box 4 #t))
(define pair-rep        (%make-pointer-type 'pair 5 #f))
(define vector-rep      (%make-pointer-type 'vector 6 #f))
(define closure-rep     (%make-pointer-type 'closure 7 #f))
(define condition-rep   (%make-pointer-type 'condition 4 #t))
(%provide-rep! 'fixnum fixnum-rep)
(%provide-rep! 'boolean boolean-rep)
(%provide-rep! 'char char-rep)
(%provide-rep! 'null null-rep)
(%provide-rep! 'unspecified unspecified-rep)
(%provide-rep! 'eof eof-rep)
(%provide-rep! 'pair pair-rep)
(%provide-rep! 'vector vector-rep)
(%provide-rep! 'rep-type rep-type-rep)
(%provide-rep! 'box box-rep)
(%provide-rep! 'string string-rep)
(%provide-rep! 'symbol symbol-rep)
(%provide-rep! 'closure closure-rep)
(%provide-rep! 'condition condition-rep)
"#;

const PROGRAM: &str = r#"
  (define (fib n) (if (fx< n 2) n (fx+ (fib (fx- n 1)) (fib (fx- n 2)))))
  (display (list3 (fib 15) '(a . b) "strings too"))
"#;

fn main() {
    let compiler = Compiler::new(PipelineConfig::abstract_optimized());

    let standard = compiler.compile(PROGRAM).expect("standard compiles");
    let alt = compiler
        .compile_with_prelude(&[ALT_REPS, PRIMS_ABSTRACT_SCM, LIBRARY_SCM], PROGRAM)
        .expect("alternative compiles");

    let so = standard.run().expect("standard runs");
    let ao = alt.run().expect("alternative runs");
    println!("standard tagging   : {}", so.output);
    println!("alternative tagging: {}", ao.output);
    assert_eq!(so.output, ao.output);

    println!("\nthe words differ (library policy), the behaviour doesn't:");
    for (name, c) in [("standard", &standard), ("alternative", &alt)] {
        let reg = &c.registry;
        let fx = reg.role("fixnum").unwrap();
        let pair = reg.role("pair").unwrap();
        println!(
            "  {name:12} fixnum 3 encodes as {:4}; pair tag is {}",
            reg.encode_immediate(fx, 3),
            reg.info(pair).tag(),
        );
    }

    println!("\nfib under each scheme (note the different immediates):");
    println!("{}", standard.disassemble("fib").unwrap());
    println!("{}", alt.disassemble("fib").unwrap());
    let _ = REPS_SCM; // the default policy ships as a library file too
}
