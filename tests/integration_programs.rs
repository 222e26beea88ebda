//! Larger end-to-end programs: sorting, an expression interpreter, GC
//! stress under a tiny heap, and — the acid test of representation
//! independence — running the whole system under a *different* tagging
//! scheme by swapping the representation library.

use sxr::{Compiler, PipelineConfig, LIBRARY_SCM, PRIMS_ABSTRACT_SCM};

fn run(src: &str) -> sxr::Outcome {
    Compiler::new(PipelineConfig::abstract_optimized())
        .compile(src)
        .unwrap_or_else(|e| panic!("compile failed: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("run failed: {e}"))
}

#[test]
fn merge_sort() {
    let out = run("
      (define (split xs)
        (if (or (null? xs) (null? (cdr xs)))
            (cons xs '())
            (let ((rest (split (cddr xs))))
              (cons (cons (car xs) (car rest))
                    (cons (cadr xs) (cdr rest))))))
      (define (merge a b)
        (cond ((null? a) b)
              ((null? b) a)
              ((fx< (car a) (car b)) (cons (car a) (merge (cdr a) b)))
              (else (cons (car b) (merge a (cdr b))))))
      (define (msort xs)
        (if (or (null? xs) (null? (cdr xs)))
            xs
            (let ((halves (split xs)))
              (merge (msort (car halves)) (msort (cdr halves))))))
      (display (msort (list5 3 1 4 1 5)))
      (display (msort '()))
      (display (equal? (msort (reverse (iota 100))) (iota 100)))");
    assert_eq!(out.output, "(1 1 3 4 5)()#t");
}

#[test]
fn expression_interpreter() {
    // A small environment-passing evaluator — the motivating workload for
    // dynamic dispatch over quoted structure.
    let out = run("
      (define (lookup env x)
        (cond ((null? env) (error 'unbound))
              ((eq? (caar env) x) (cdar env))
              (else (lookup (cdr env) x))))
      (define (ev e env)
        (cond ((fixnum? e) e)
              ((symbol? e) (lookup env e))
              ((eq? (car e) '+) (fx+ (ev (cadr e) env) (ev (caddr e) env)))
              ((eq? (car e) '*) (fx* (ev (cadr e) env) (ev (caddr e) env)))
              ((eq? (car e) 'let)
               ;; (let (x e) body)
               (ev (caddr e)
                   (cons (cons (car (cadr e)) (ev (cadr (cadr e)) env)) env)))
              (else (error 'bad-op))))
      (display (ev '(let (x 7) (+ (* x x) (let (y 2) (* y x)))) '()))");
    assert_eq!(out.output, "63");
}

#[test]
fn ackermann() {
    assert_eq!(
        run("(define (ack m n)
               (cond ((fx= m 0) (fx+ n 1))
                     ((fx= n 0) (ack (fx- m 1) 1))
                     (else (ack (fx- m 1) (ack m (fx- n 1))))))
             (ack 2 4)")
        .value,
        "11"
    );
}

#[test]
fn gc_stress_under_tiny_heap() {
    // Churn through far more allocation than the heap holds; survivors form
    // a long-lived structure that must stay intact across collections.
    let cfg = PipelineConfig::abstract_optimized().with_heap_words(1 << 12);
    let out = Compiler::new(cfg)
        .compile(
            "(define keep (iota 50))
             (define (churn k)
               (if (fx= k 0)
                   'done
                   (begin (reverse (iota 100)) (churn (fx- k 1)))))
             (churn 500)
             (display (fold-left fx+ 0 keep))
             (display \" \")
             (display (length keep))",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.output, "1225 50");
    assert!(
        out.counters.gc_count > 5,
        "expected collections, got {}",
        out.counters.gc_count
    );
}

#[test]
fn deep_non_tail_recursion() {
    // Non-tail recursion a few thousand deep exercises the frame stack.
    assert_eq!(
        run(
            "(define (sum-to n) (if (fx= n 0) 0 (fx+ n (sum-to (fx- n 1)))))
             (sum-to 5000)"
        )
        .value,
        "12502500"
    );
}

#[test]
fn closures_capture_correctly() {
    let out = run("
      (define (make-adders)
        (map (lambda (i) (lambda (x) (fx+ x i))) (iota 4)))
      (display (map (lambda (f) (f 10)) (make-adders)))");
    assert_eq!(out.output, "(10 11 12 13)");
}

#[test]
fn string_builder() {
    let out = run("
      (define (join strs sep)
        (cond ((null? strs) \"\")
              ((null? (cdr strs)) (car strs))
              (else (string-append (car strs)
                                   (string-append sep (join (cdr strs) sep))))))
      (display (join (list3 \"a\" \"b\" \"c\") \", \"))");
    assert_eq!(out.output, "a, b, c");
}

/// An alternative representation library: different fixnum shift, permuted
/// pointer tags, different immediate sub-tags. Swapping it in changes every
/// tag in the system; the compiler is none the wiser.
const ALT_REPS_SCM: &str = "
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
";

#[test]
fn alternative_tagging_scheme_changes_nothing_observable() {
    let programs = [
        "(display (fx+ 20 22))",
        "(display (reverse (iota 5)))",
        "(display (equal? '(1 #(2 \"three\") x) (list3 1 (vector->list-inverse) 'x)))",
    ];
    // The third program needs a helper; keep it simple instead:
    let programs = [
        programs[0],
        programs[1],
        "(write '(1 #(2 \"three\") #\\x))",
        "(display (let loop ((i 0) (s 0)) (if (fx= i 50) s (loop (fx+ i 1) (fx+ s i)))))",
        "(display (assq 'b '((a . 1) (b . 2))))",
    ];
    for src in programs {
        let standard = run(src).output;
        for cfg in [
            PipelineConfig::abstract_optimized(),
            PipelineConfig::abstract_unoptimized(),
        ] {
            let alt = Compiler::new(cfg)
                .compile_with_prelude(&[ALT_REPS_SCM, PRIMS_ABSTRACT_SCM, LIBRARY_SCM], src)
                .unwrap_or_else(|e| panic!("alt-tagging compile failed: {e}\n{src}"))
                .run()
                .unwrap_or_else(|e| panic!("alt-tagging run failed: {e}\n{src}"));
            assert_eq!(alt.output, standard, "alt tagging diverged on {src}");
        }
    }
}

#[test]
fn mutual_recursion() {
    assert_eq!(
        run("(define (even2? n) (if (fx= n 0) #t (odd2? (fx- n 1))))
             (define (odd2? n) (if (fx= n 0) #f (even2? (fx- n 1))))
             (list2 (even2? 10) (odd2? 10))")
        .value,
        "(#t #f)"
    );
}

#[test]
fn do_loops_and_case() {
    assert_eq!(
        run("(do ((i 0 (fx+ i 1)) (acc 1 (fx* acc 2))) ((fx= i 10) acc))").value,
        "1024"
    );
}

#[test]
fn shipped_scheme_examples_run_identically_everywhere() {
    for (path, expect_contains) in [
        ("examples/scheme/nbody_ish.scm", "after 1000 ticks"),
        ("examples/scheme/wordfreq.scm", "the: 3"),
        ("examples/scheme/metacircular.scm", "= 7"),
    ] {
        // Tests run from the crate root; examples live at the repo root.
        let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"));
        let mut outputs = Vec::new();
        for cfg in [
            PipelineConfig::traditional(),
            PipelineConfig::abstract_optimized(),
            PipelineConfig::abstract_unoptimized(),
        ] {
            let out = Compiler::new(cfg)
                .compile(&src)
                .unwrap_or_else(|e| panic!("{path}: {e}"))
                .run()
                .unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(
                out.output.contains(expect_contains),
                "{path}: {}",
                out.output
            );
            outputs.push(out.output);
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{path} diverged");
    }
}

#[test]
fn letrec_early_reference_reads_the_unspecified_value() {
    // R7RS makes referencing a `letrec` variable before its init has run
    // "an error" but does not require an implementation to detect it. The
    // expander's box fallback fills every box with the unspecified value
    // before any init runs, so the early reference yields exactly that.
    for cfg in [
        PipelineConfig::traditional(),
        PipelineConfig::abstract_optimized(),
        PipelineConfig::abstract_unoptimized(),
    ] {
        let label = cfg.label();
        let compiler = Compiler::new(cfg);
        let run = |src: &str| {
            compiler
                .compile(src)
                .unwrap_or_else(|e| panic!("[{label}] {src}: {e}"))
                .run()
                .unwrap_or_else(|e| panic!("[{label}] {src}: {e}"))
        };
        let early = run("(letrec ((a b) (b 1)) a)");
        assert_eq!(early.value, run("(if #f #f)").value, "[{label}]");
        assert_eq!(early.output, "", "[{label}]");
    }
}
