//! A compile keeps only the library procedures the program reaches.
//!
//! Lowering drops each library `(define g (lambda ...))` whose global no
//! kept code reads. These tests pin what must survive that: redefinitions
//! and `set!`s of library globals, procedures reached only through other
//! library procedures, the boxes assignment conversion introduces, and
//! user procedures nobody calls (with their compile errors).

use sxr::{Compiled, Compiler, PipelineConfig};

fn configs() -> [(&'static str, PipelineConfig); 3] {
    [
        ("Traditional", PipelineConfig::traditional()),
        ("AbstractOpt", PipelineConfig::abstract_optimized()),
        ("AbstractNoOpt", PipelineConfig::abstract_unoptimized()),
    ]
}

/// Compiles and runs `src` under every configuration, checking its value
/// and output, and returns each configuration's compile.
fn check(src: &str, value: &str, output: &str) -> Vec<(&'static str, Compiled)> {
    configs()
        .into_iter()
        .map(|(label, config)| {
            let compiled = Compiler::new(config)
                .compile(src)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let out = compiled.run().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                (out.value.as_str(), out.output.as_str()),
                (value, output),
                "{label}"
            );
            (label, compiled)
        })
        .collect()
}

#[test]
fn rebinding_and_assigning_library_globals_keeps_their_meaning() {
    // `car` is redefined around the library's own `car`, and `length` is
    // assigned, never read by the program itself: `list->vector` still
    // reads it, and must see the new value.
    check(
        "(define car (let ((c car)) (lambda (p) (c p))))
         (display (car (cons 1 2)))
         (set! length (lambda (l) 99))
         (vector-length (list->vector (list 1 2)))",
        "99",
        "1",
    );
    // An assigned library procedure that nothing reads.
    check("(set! length (lambda (l) 99)) 7", "7", "");
}

#[test]
fn a_library_procedure_reached_only_through_another_is_compiled() {
    let src = "(define v (list->vector (list 4 5 6)))
               (display (vector-ref v 2))
               (vector-length v)";
    for (label, compiled) in check(src, "3", "6") {
        assert!(
            compiled.fun_by_name("length").is_some(),
            "{label}: `list->vector` calls `length`"
        );
        assert!(
            compiled.fun_by_name("vector->list").is_none(),
            "{label}: nothing reaches `vector->list`"
        );
    }
}

#[test]
fn assignment_conversion_keeps_the_boxes_it_introduces() {
    let src = "(define (counter) (let ((n 0)) (lambda () (set! n (fx+ n 1)) n)))
               (define c (counter))
               (c) (c) (c)";
    for (label, compiled) in check(src, "3", "") {
        for name in ["box", "unbox", "set-box!"] {
            assert!(compiled.fun_by_name(name).is_some(), "{label}: {name}");
        }
    }
    // Without a `set!` of a lexical, no box procedure is reached.
    for (label, compiled) in check("(define (f n) (fx+ n 1)) (f 2)", "3", "") {
        assert!(compiled.fun_by_name("box").is_none(), "{label}");
    }
}

#[test]
fn user_procedures_are_compiled_even_when_never_called() {
    for (label, compiled) in check("(define (never x) (fx* x 3)) 0", "0", "") {
        assert!(compiled.fun_by_name("never").is_some(), "{label}");
    }
    for (label, config) in configs() {
        let err = Compiler::new(config)
            .compile("(define (never) (%bogus 1)) 0")
            .err()
            .unwrap_or_else(|| panic!("{label}: compiled"));
        assert!(
            err.to_string().contains("unknown sub-primitive `%bogus`"),
            "{label}: {err}"
        );
    }
}

/// The most functions program `0` may emit in any configuration: it
/// reaches no library procedure, so only the entry function is left. (When
/// every compile kept the whole library, it emitted 177 functions, 166
/// under AbstractNoOpt.)
const EMPTY_PROGRAM_FUNS: usize = 1;

#[test]
fn the_empty_program_compiles_no_library_procedure() {
    for (label, config) in configs() {
        let compiled = Compiler::new(config).compile("0").unwrap();
        let names: Vec<&str> = compiled.code.funs.iter().map(|f| f.name.as_str()).collect();
        assert!(names.len() <= EMPTY_PROGRAM_FUNS, "{label}: {names:?}");
    }
}
