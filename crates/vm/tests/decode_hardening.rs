//! Regression tests for the load-time structural checks that used to be
//! `debug_assert`s (or release-build panics): every one of these programs
//! must be refused with a structured `BadProgram` error in *all* build
//! profiles, before a single instruction runs.

use sxr_ir::rep::RepRegistry;
use sxr_vm::{
    CodeFun, CodeProgram, Heap, Inst, Machine, MachineConfig, RegImm, RepVmOp, VmErrorKind,
};

fn boot_registry() -> RepRegistry {
    let mut reg = RepRegistry::new();
    let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
    let bo = reg.intern_immediate("boolean", 8, 0b010, 8).unwrap();
    let un = reg
        .intern_immediate("unspecified", 8, 0b0001_0010, 8)
        .unwrap();
    let clo = reg.intern_pointer("closure", 0b111, false).unwrap();
    for (role, id) in [
        ("fixnum", fx),
        ("boolean", bo),
        ("unspecified", un),
        ("closure", clo),
    ] {
        reg.provide_role(role, id).unwrap();
    }
    reg
}

fn fun(nregs: usize, insts: Vec<Inst>) -> CodeFun {
    CodeFun {
        name: "main".into(),
        arity: 0,
        variadic: false,
        nregs,
        free_count: 0,
        insts,
        ptr_map: vec![true; nregs],
        free_ptr_map: vec![],
    }
}

fn program(funs: Vec<CodeFun>) -> CodeProgram {
    CodeProgram {
        funs,
        main: 0,
        pool: vec![],
        nglobals: 1,
        global_names: vec!["g0".into()],
        registry: boot_registry(),
    }
}

#[track_caller]
fn assert_load_rejected(prog: CodeProgram, needle: &str) {
    // No verifier installed: these are the loader's own structural checks.
    let err = Machine::new(prog, MachineConfig::default()).unwrap_err();
    assert_eq!(err.kind, VmErrorKind::BadProgram, "{}", err.message);
    assert!(
        err.message.contains(needle),
        "message {:?} lacks {:?}",
        err.message,
        needle
    );
}

#[test]
fn register_field_out_of_bounds() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![Inst::Move { d: 1, s: 9 }, Inst::Ret { s: 1 }],
        )]),
        "register",
    );
}

#[test]
fn pool_index_out_of_bounds() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![Inst::Pool { d: 1, idx: 3 }, Inst::Ret { s: 1 }],
        )]),
        "pool",
    );
}

#[test]
fn global_index_out_of_bounds() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![Inst::GlobalGet { d: 1, g: 44 }, Inst::Ret { s: 1 }],
        )]),
        "global",
    );
}

#[test]
fn function_id_out_of_bounds() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![
                Inst::CallKnown {
                    d: 1,
                    f: 12,
                    clo: 0,
                    args: vec![],
                },
                Inst::Ret { s: 1 },
            ],
        )]),
        "function",
    );
}

#[test]
fn alloc_of_unknown_rep_is_rejected_not_a_panic() {
    // A rep id past the registry used to reach `registry.info`'s indexing
    // panic before any structured check.
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![
                Inst::Const { d: 1, imm: 0 },
                Inst::AllocFill {
                    d: 1,
                    len: RegImm::Imm(1),
                    fill: 1,
                    rep: 999,
                },
                Inst::Ret { s: 1 },
            ],
        )]),
        "representation",
    );
}

#[test]
fn rep_operand_count_is_checked_at_load() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![
                Inst::Rep {
                    op: RepVmOp::Set,
                    d: 1,
                    args: vec![0, 0], // Set takes 4
                },
                Inst::Ret { s: 1 },
            ],
        )]),
        "operand",
    );
}

#[test]
fn entry_function_id_out_of_bounds() {
    let mut prog = program(vec![fun(1, vec![Inst::Ret { s: 0 }])]);
    prog.main = 5;
    assert_load_rejected(prog, "main function id");
}

#[test]
fn frame_too_small_for_parameters() {
    let mut f = fun(1, vec![Inst::Ret { s: 0 }]);
    f.arity = 2; // needs closure + 2 params = 3 registers
    assert_load_rejected(program(vec![f]), "register");
}

#[test]
fn variadic_entry_needs_an_immediate_null_role() {
    // A rest list ends in the `null` role's immediate encoding.  A pointer
    // `null` never reaches the loader: the registry refuses it.
    let mut reg = boot_registry();
    let pair = reg.intern_pointer("pair", 0b001, false).unwrap();
    let null = reg.intern_pointer("null", 0b011, false).unwrap();
    reg.provide_role("pair", pair).unwrap();
    let err = reg.provide_role("null", null).unwrap_err();
    assert!(err.0.contains("`null`"), "{err}");
    assert_eq!(reg.role("null"), None);
    // Without a `null` role the variadic entry is refused at load.
    let mut f = fun(2, vec![Inst::Ret { s: 1 }]);
    f.variadic = true;
    let mut prog = program(vec![f]);
    prog.registry = reg;
    assert_load_rejected(prog, "null");
}

#[test]
#[should_panic(expected = "caller must ensure space")]
fn heap_alloc_without_reserved_space_panics_in_all_builds() {
    // `Heap::new` rounds capacity up to 64 words; 100 fields cannot fit.
    let mut heap = Heap::new(4);
    heap.alloc(100, 0, 0);
}
