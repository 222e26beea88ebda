//! Generated-code quality checks: the shapes the paper's claim depends on,
//! asserted at the instruction level.

use sxr::{Compiler, PipelineConfig};

fn compile_opt(src: &str) -> sxr::Compiled {
    Compiler::new(PipelineConfig::abstract_optimized())
        .compile(src)
        .unwrap()
}

fn dis(c: &sxr::Compiled, name: &str) -> String {
    c.disassemble(name)
        .unwrap_or_else(|| panic!("no fn {name}"))
}

#[test]
fn fx_less_fuses_into_one_branch() {
    let c = compile_opt("(define (lt2? a b) (if (fx< a b) 'yes 'no)) 0");
    let d = dis(&c, "lt2?");
    assert!(
        d.contains("JumpCmp { op: Ge"),
        "fused compare-and-branch:\n{d}"
    );
    assert!(!d.contains("CmpLt"), "no separate comparison:\n{d}");
}

#[test]
fn car_is_single_displacement_load() {
    let c = compile_opt("(begin car 0)");
    let d = dis(&c, "car");
    // LoadD with displacement 8 - pair_tag(1) = 7, then return.
    assert!(d.contains("LoadD"), "{d}");
    assert!(d.contains("disp: 7"), "{d}");
    assert_eq!(c.static_count("car"), Some(2));
}

#[test]
fn vector_ref_uses_indexed_addressing() {
    let c = compile_opt("(begin vector-ref 0)");
    let d = dis(&c, "vector-ref");
    assert!(
        d.contains("LoadX"),
        "indexed load with fused tag math:\n{d}"
    );
    assert_eq!(c.static_count("vector-ref"), Some(2));
}

#[test]
fn fxadd_is_single_add_on_tagged_words() {
    let c = compile_opt("(begin fx+ 0)");
    let d = dis(&c, "fx+");
    assert!(d.contains("op: Add"), "{d}");
    assert!(!d.contains("Shr"), "no projection survives:\n{d}");
    assert_eq!(c.static_count("fx+"), Some(2));
}

#[test]
fn immediate_operands_fold_into_instructions() {
    let c = compile_opt("(define (inc x) (fx+ x 1)) 0");
    let d = dis(&c, "inc");
    // The tagged constant 8 rides in the instruction, no Const load.
    assert!(d.contains("BinI { op: Add") && d.contains("imm: 8"), "{d}");
    assert_eq!(c.static_count("inc"), Some(2));
}

#[test]
fn no_jumps_to_fallthrough() {
    let c = compile_opt(
        "(define (classify x)
           (cond ((pair? x) 0) ((null? x) 1) ((fixnum? x) 2) (else 3))) 0",
    );
    for f in &c.code.funs {
        for (i, inst) in f.insts.iter().enumerate() {
            if let sxr_vm::Inst::Jump { t } = inst {
                assert_ne!(*t as usize, i + 1, "jump-to-next survives in {}", f.name);
            }
        }
    }
}

#[test]
fn branch_targets_in_range() {
    let c = compile_opt("(define (weird x) (if (if (pair? x) (fx< (car x) 0) #f) 'neg 'other)) 0");
    for f in &c.code.funs {
        let n = f.insts.len() as u32;
        for inst in &f.insts {
            match inst {
                sxr_vm::Inst::Jump { t } | sxr_vm::Inst::JumpCmp { t, .. } => {
                    assert!(*t <= n, "target out of range in {}", f.name);
                }
                _ => {}
            }
        }
    }
}

#[test]
fn pointer_maps_mark_projections_raw() {
    // fxquotient's body projects both operands; those registers must be
    // skipped by the collector.
    let c = compile_opt("(begin fxquotient 0)");
    let f = c.fun_by_name("fxquotient").unwrap();
    assert!(
        f.ptr_map.iter().any(|tagged| !tagged),
        "expected at least one raw register in fxquotient's map"
    );
    // Register 0 (closure) and the parameters are always scanned.
    assert!(f.ptr_map[0] && f.ptr_map[1] && f.ptr_map[2]);
}

#[test]
fn self_recursive_loop_uses_known_tail_call() {
    let c = compile_opt("(define (run) (let loop ((i 0)) (if (fx= i 10) i (loop (fx+ i 1))))) 0");
    let has_known_tail = c.code.funs.iter().any(|f| {
        f.insts
            .iter()
            .any(|i| matches!(i, sxr_vm::Inst::TailCallKnown { .. }))
    });
    assert!(has_known_tail, "loop should compile to a direct tail call");
}

#[test]
fn traditional_and_abstract_agree_instruction_for_instruction_on_fib() {
    let src = "(define (fib n) (if (fx< n 2) n (fx+ (fib (fx- n 1)) (fib (fx- n 2))))) 0";
    let a = compile_opt(src);
    let t = Compiler::new(PipelineConfig::traditional())
        .compile(src)
        .unwrap();
    assert_eq!(
        a.fun_by_name("fib").unwrap().insts,
        t.fun_by_name("fib").unwrap().insts,
        "the paper's headline, literally"
    );
}
