//! End-to-end pipeline smoke tests for the paper's system configuration.

use sxr::{Compiler, PipelineConfig};

fn run(src: &str) -> (String, String) {
    let compiled = Compiler::new(PipelineConfig::abstract_optimized())
        .compile(src)
        .unwrap_or_else(|e| panic!("compile failed: {e}"));
    let out = compiled.run().unwrap_or_else(|e| panic!("run failed: {e}"));
    (out.value, out.output)
}

#[test]
fn arithmetic() {
    assert_eq!(run("(fx+ 1 2)").0, "3");
    assert_eq!(run("(fx* 6 7)").0, "42");
    assert_eq!(run("(fx- 1 5)").0, "-4");
    assert_eq!(run("(fxquotient 17 5)").0, "3");
    assert_eq!(run("(fxremainder 17 5)").0, "2");
    assert_eq!(run("(fx< 1 2)").0, "#t");
}

#[test]
fn pairs_and_lists() {
    assert_eq!(run("(car (cons 1 2))").0, "1");
    assert_eq!(run("(cdr (cons 1 2))").0, "2");
    assert_eq!(run("(length (list3 1 2 3))").0, "3");
    assert_eq!(run("(append (list2 1 2) (list2 3 4))").0, "(1 2 3 4)");
    assert_eq!(run("(reverse (list3 1 2 3))").0, "(3 2 1)");
}

#[test]
fn display_output() {
    assert_eq!(run("(display (fx+ 40 2))").1, "42");
    assert_eq!(
        run("(display \"hello\") (newline) (display 'world)").1,
        "hello\nworld"
    );
    assert_eq!(run("(display (list3 1 #\\a \"s\"))").1, "(1 a s)");
    assert_eq!(run("(write (list2 #\\a \"s\"))").1, "(#\\a \"s\")");
    assert_eq!(run("(display -273)").1, "-273");
}

#[test]
fn recursion_and_loops() {
    assert_eq!(
        run("(define (fib n) (if (fx< n 2) n (fx+ (fib (fx- n 1)) (fib (fx- n 2))))) (fib 12)").0,
        "144"
    );
    assert_eq!(
        run("(let loop ((i 0) (sum 0)) (if (fx= i 100) sum (loop (fx+ i 1) (fx+ sum i))))").0,
        "4950"
    );
}

#[test]
fn vectors_and_strings() {
    assert_eq!(
        run("(let ((v (make-vector 3 7))) (vector-set! v 1 9) (vector-ref v 1))").0,
        "9"
    );
    assert_eq!(run("(vector-length (make-vector 5 0))").0, "5");
    assert_eq!(run("(string-length \"abcd\")").0, "4");
    assert_eq!(run("(string-ref \"abc\" 1)").0, "#\\b");
    assert_eq!(run("(string-append \"ab\" \"cd\")").0, "\"abcd\"");
    assert_eq!(run("(string=? (substring \"hello\" 1 3) \"el\")").0, "#t");
}

#[test]
fn quoted_data_and_equality() {
    assert_eq!(run("(equal? '(1 (2 3)) (list2 1 (list2 2 3)))").0, "#t");
    assert_eq!(run("(eq? 'a 'a)").0, "#t");
    assert_eq!(run("(assq 'b '((a 1) (b 2)))").0, "(b 2)");
    assert_eq!(run("(member \"x\" '(\"w\" \"x\"))").0, "(\"x\")");
    assert_eq!(run("'#(1 a)").0, "#(1 a)");
}

#[test]
fn set_and_boxes() {
    assert_eq!(
        run("(define counter 0) (set! counter (fx+ counter 1)) counter").0,
        "1"
    );
    assert_eq!(
        run("(define (make-counter)
               (let ((n 0))
                 (lambda () (set! n (fx+ n 1)) n)))
             (define c (make-counter))
             (c) (c) (c)")
        .0,
        "3"
    );
}

#[test]
fn higher_order() {
    assert_eq!(
        run("(map (lambda (x) (fx* x x)) (list3 1 2 3))").0,
        "(1 4 9)"
    );
    assert_eq!(run("(fold-left fx+ 0 (iota 10))").0, "45");
    assert_eq!(run("(filter even? (iota 8))").0, "(0 2 4 6)");
}

#[test]
fn tail_calls_are_space_safe() {
    // A million iterations must not overflow the frame stack.
    assert_eq!(
        run("(let loop ((i 0)) (if (fx= i 1000000) 'done (loop (fx+ i 1))))").0,
        "done"
    );
}

#[test]
fn runtime_errors_surface() {
    let compiled = Compiler::new(PipelineConfig::abstract_optimized())
        .compile("(fxquotient 1 0)")
        .unwrap();
    let err = compiled.run().unwrap_err();
    assert_eq!(err.kind, sxr::VmErrorKind::DivideByZero);

    let compiled = Compiler::new(PipelineConfig::abstract_optimized())
        .compile("(define x 5) (x 1)")
        .unwrap();
    assert_eq!(
        compiled.run().unwrap_err().kind,
        sxr::VmErrorKind::NotAProcedure
    );
}

#[test]
fn first_class_rep_types_at_runtime() {
    // Construct a brand-new data type at run time through the generic
    // facility and use it — the paper's first-classness property.
    let src = "
      (define point-rep (%make-pointer-type 'point 4 #t))
      (define (make-point x y)
        (let ((p (%rep-alloc point-rep (%rep-project fixnum-rep 2) x)))
          (%rep-set! point-rep p (%rep-project fixnum-rep 1) y)
          p))
      (define (point-x p) (%rep-ref point-rep p (%rep-project fixnum-rep 0)))
      (define (point-y p) (%rep-ref point-rep p (%rep-project fixnum-rep 1)))
      (define (point? x) (%rep-inject boolean-rep (%rep-test point-rep x)))
      (define p (make-point 3 4))
      (display (point? p)) (display \" \")
      (display (point? (cons 1 2))) (display \" \")
      (display (fx+ (point-x p) (point-y p)))";
    for cfg in [
        PipelineConfig::abstract_optimized(),
        PipelineConfig::abstract_unoptimized(),
    ] {
        let out = Compiler::new(cfg).compile(src).unwrap().run().unwrap();
        assert_eq!(out.output, "#t #f 7");
    }
}

#[test]
fn variadic_lambdas_and_apply() {
    for cfg in [
        PipelineConfig::traditional(),
        PipelineConfig::abstract_optimized(),
        PipelineConfig::abstract_unoptimized(),
    ] {
        let out = Compiler::new(cfg)
            .compile(
                "(display (list 1 2 3))
                 (display (list))
                 (display (+ 1 2 3 4))
                 (display (- 10 1 2))
                 (display (- 5))
                 (define (tag-all tag . xs) (map (lambda (x) (cons tag x)) xs))
                 (display (tag-all 'k 1 2))
                 (display (apply fx+ (list 40 2)))
                 (display (apply list (list 1 2 3 4 5)))",
            )
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.output, "(1 2 3)()107-5((k . 1) (k . 2))42(1 2 3 4 5)");
    }
}

#[test]
fn variadic_arity_errors() {
    let compiled = Compiler::new(PipelineConfig::abstract_optimized())
        .compile("(define (f a . rest) a) (f)")
        .unwrap();
    assert_eq!(
        compiled.run().unwrap_err().kind,
        sxr::VmErrorKind::ArityMismatch
    );
}

#[test]
fn define_record_type() {
    let src = "
      (define-record-type kons
        (make-kons kar kdr)
        kons?
        (kar kons-kar set-kons-kar!)
        (kdr kons-kdr))
      (define k (make-kons 1 2))
      (display (list (kons-kar k) (kons-kdr k) (kons? k) (kons? (cons 1 2))))
      (set-kons-kar! k 10)
      (display (kons-kar k))";
    for cfg in [
        PipelineConfig::traditional(),
        PipelineConfig::abstract_optimized(),
        PipelineConfig::abstract_unoptimized(),
    ] {
        let out = Compiler::new(cfg).compile(src).unwrap().run().unwrap();
        assert_eq!(out.output, "(1 2 #t #f)10");
    }

    // Under the optimizing pipeline the accessor is a single load + return.
    let compiled = Compiler::new(PipelineConfig::abstract_optimized())
        .compile(src)
        .unwrap();
    assert_eq!(compiled.static_count("kons-kar"), Some(2));
}

#[test]
fn record_types_are_distinguished() {
    // Two record types share the record tag; the discriminated test must
    // tell them apart.
    let out = run("
      (define-record-type a (make-a x) a? (x a-x))
      (define-record-type b (make-b y) b? (y b-y))
      (display (list (a? (make-a 1)) (a? (make-b 1)) (b? (make-b 1)) (a? (box 1))))");
    assert_eq!(out.1, "(#t #f #t #f)");
}

/// Closure conversion's one-pass free sets agree with the definition,
/// computed directly for each lambda (the walk closure conversion used
/// before), for every lambda of the corpus under every configuration.
#[test]
fn captures_match_the_reference_free_variables() {
    use std::collections::BTreeSet;
    use sxr::PrimitiveMode;
    use sxr_ir::anf::{Atom, Bound, Expr, FunDef, VarId, Walk};
    use sxr_ir::{IdSet, Lowered};

    /// Variables `body` uses but neither binds nor gets from `params`.
    fn free_vars(body: &Expr, params: &[VarId]) -> BTreeSet<VarId> {
        let mut bound: IdSet<VarId> = params.iter().copied().collect();
        collect_bound(body, &mut bound);
        let mut free = BTreeSet::new();
        body.for_each_atom(&mut |a| {
            if let Atom::Var(v) = a {
                if !bound.contains(v) {
                    free.insert(*v);
                }
            }
        });
        free
    }

    fn bind_fun(l: &FunDef, out: &mut IdSet<VarId>) {
        out.extend(l.params.iter().chain(&l.rest).copied());
        collect_bound(&l.body, out);
    }

    fn collect_bound(e: &Expr, out: &mut IdSet<VarId>) {
        match e {
            Expr::Let(v, b, body) => {
                out.insert(*v);
                match b {
                    Bound::Lambda(l) => bind_fun(l, out),
                    Bound::If(_, t, e2) => {
                        collect_bound(t, out);
                        collect_bound(e2, out);
                    }
                    Bound::Body(e2) => collect_bound(e2, out),
                    _ => {}
                }
                collect_bound(body, out);
            }
            Expr::If(_, t, e2) => {
                collect_bound(t, out);
                collect_bound(e2, out);
            }
            Expr::Ret(_) | Expr::TailCall(..) | Expr::TailCallKnown(..) => {}
            Expr::LetRec(binds, body) => {
                for (v, l) in binds {
                    out.insert(*v);
                    bind_fun(l, out);
                }
                collect_bound(body, out);
            }
        }
    }

    /// The program as closure conversion receives it, staged through the
    /// layer crates in the order `Compiler::compile` runs them.
    fn before_closure_conversion(config: &PipelineConfig, source: &str) -> Expr {
        let prims = match config.mode {
            PrimitiveMode::Abstract => sxr::PRIMS_ABSTRACT_SCM,
            PrimitiveMode::Traditional => sxr::PRIMS_TRADITIONAL_SCM,
        };
        let mut expander = sxr_ast::Expander::new();
        let units = [sxr::REPS_SCM, prims, sxr::LIBRARY_SCM, source]
            .iter()
            .map(|src| expander.expand_unit(&sxr_sexp::parse_all(src).unwrap()))
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let mut program = expander.into_program(units);
        sxr_ast::convert_assignments(&mut program).unwrap();
        let Lowered {
            main_body,
            mut supply,
            ..
        } = sxr_ir::lower_program(program).unwrap();
        let mut registry = sxr_ir::RepRegistry::new();
        let rep_globals = sxr_opt::scan_representations(&main_body, &mut registry).unwrap();
        let main_body = match config.mode {
            PrimitiveMode::Traditional => {
                sxr_codegen::lower_intrinsics_expr(main_body, &registry, &mut supply).unwrap()
            }
            PrimitiveMode::Abstract => main_body,
        };
        sxr_opt::optimize(
            main_body,
            &mut registry,
            &rep_globals,
            &mut supply,
            &config.opt,
        )
        .unwrap()
        .0
    }

    // The front end and optimizer still recurse per binding.
    let check = || {
        let mut lambdas = 0;
        for (label, config) in sxr_bench::measured_configs() {
            for bench in sxr_bench::BENCHMARKS {
                let e = before_closure_conversion(&config, bench.source);
                let captures = sxr_ir::clconv::captures(&e);
                let mut check_fun = |v: VarId, l: &FunDef| {
                    let params: Vec<VarId> = l.params.iter().chain(&l.rest).copied().collect();
                    let mut want = free_vars(&l.body, &params);
                    want.remove(&v);
                    let want: Vec<VarId> = want.into_iter().collect();
                    assert_eq!(
                        captures.get(&v),
                        Some(&want),
                        "{} {label}: v{v}",
                        bench.name
                    );
                    lambdas += 1;
                };
                e.visit::<()>(|node| {
                    match node {
                        Expr::Let(v, Bound::Lambda(l), _) => check_fun(*v, l),
                        Expr::LetRec(binds, _) => binds.iter().for_each(|(v, l)| check_fun(*v, l)),
                        _ => {}
                    }
                    Walk::Enter
                });
            }
        }
        assert!(lambdas > 1000, "only {lambdas} lambdas checked");
    };
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(512 << 20)
            .spawn_scoped(s, check)
            .unwrap()
            .join()
            .unwrap();
    });
}

#[test]
fn the_reader_bounds_how_deeply_source_nests() {
    use sxr::CompileError;
    use sxr_sexp::{ParseErrorKind, MAX_NESTING};
    let nest = |depth: usize| format!("{}1{}", "(begin ".repeat(depth), ")".repeat(depth));
    let compiler = Compiler::new(PipelineConfig::abstract_optimized());
    let at_limit = compiler
        .compile(&nest(MAX_NESTING))
        .unwrap_or_else(|e| panic!("nesting at the limit compiles: {e}"));
    assert_eq!(at_limit.run().unwrap().value, "1");
    match compiler.compile(&nest(MAX_NESTING + 1)) {
        Err(CompileError::Parse(e)) => {
            assert_eq!(e.kind, ParseErrorKind::TooDeep(MAX_NESTING));
            // The span is the opening paren past the limit.
            assert_eq!(e.span.start, MAX_NESTING * "(begin ".len());
        }
        other => panic!("expected a nesting error, got {:?}", other.map(|_| ())),
    }
    // Quote prefixes and datum comments nest too.
    let quotes = format!("{}1", "'".repeat(MAX_NESTING + 1));
    let comments = format!(
        "{}{}",
        "#;".repeat(MAX_NESTING + 1),
        " 1".repeat(MAX_NESTING + 2)
    );
    for src in [quotes, comments] {
        match compiler.compile(&src) {
            Err(CompileError::Parse(e)) => assert_eq!(e.kind, ParseErrorKind::TooDeep(MAX_NESTING)),
            other => panic!("expected a nesting error, got {:?}", other.map(|_| ())),
        }
    }
}
