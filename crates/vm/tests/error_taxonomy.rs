//! Error-taxonomy tests: every [`VmErrorKind`] variant is constructible,
//! carries a stable unique label, and — where the machine can be driven to
//! it — actually comes out of execution as a structured, recoverable error
//! rather than a panic.  The out-of-memory variants additionally
//! distinguish a request that could never fit ([`OomPhase::Alloc`]) from a
//! collection that ran and reclaimed too little ([`OomPhase::Collect`]).

use sxr_ir::rep::RepRegistry;
use sxr_vm::{
    BinOp, CodeFun, CodeProgram, FaultPlan, Inst, Machine, MachineConfig, OomPhase, RegImm,
    VmError, VmErrorKind,
};

/// The classic tagging scheme, built the way a library would.
struct Reg {
    reg: RepRegistry,
    fx: u32,
    pair: u32,
    clo: u32,
}

fn classic_registry() -> Reg {
    let mut reg = RepRegistry::new();
    let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
    let bo = reg.intern_immediate("boolean", 8, 0b0000_0010, 8).unwrap();
    let un = reg
        .intern_immediate("unspecified", 8, 0b0011_0010, 8)
        .unwrap();
    let pair = reg.intern_pointer("pair", 0b001, false).unwrap();
    let clo = reg.intern_pointer("closure", 0b111, false).unwrap();
    for (role, id) in [
        ("fixnum", fx),
        ("boolean", bo),
        ("unspecified", un),
        ("pair", pair),
        ("closure", clo),
    ] {
        reg.provide_role(role, id).unwrap();
    }
    Reg { reg, fx, pair, clo }
}

fn fun(name: &str, arity: usize, nregs: usize, insts: Vec<Inst>) -> CodeFun {
    CodeFun {
        name: name.into(),
        arity,
        variadic: false,
        nregs,
        free_count: 0,
        insts,
        ptr_map: vec![true; nregs],
        free_ptr_map: vec![],
    }
}

fn program(reg: RepRegistry, funs: Vec<CodeFun>) -> CodeProgram {
    CodeProgram {
        funs,
        main: 0,
        pool: vec![],
        nglobals: 1,
        global_names: vec!["g0".into()],
        registry: reg,
    }
}

/// Runs `main` under `config` and returns the error it must produce.
fn run_expecting_error(reg: RepRegistry, funs: Vec<CodeFun>, config: MachineConfig) -> VmError {
    let mut m = Machine::new(program(reg, funs), config).unwrap();
    m.run().expect_err("program is built to fail")
}

#[test]
fn every_kind_is_constructible_with_stable_unique_labels() {
    let kinds = vec![
        VmErrorKind::NotAProcedure,
        VmErrorKind::ArityMismatch,
        VmErrorKind::BadMemoryAccess,
        VmErrorKind::DivideByZero,
        VmErrorKind::BadRepOperation,
        VmErrorKind::SchemeError,
        VmErrorKind::BadProgram,
        VmErrorKind::Timeout,
        VmErrorKind::StackOverflow,
        VmErrorKind::UncaughtCondition,
        VmErrorKind::OutOfMemory {
            requested: 16,
            capacity: 8,
            phase: OomPhase::Alloc,
        },
    ];
    let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
    let mut unique = labels.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), labels.len(), "labels are unique per kind");
    for k in &kinds {
        assert_eq!(k.is_oom(), k.label() == "out-of-memory");
        let e = VmError::new(k.clone(), "detail");
        assert_eq!(&e.kind, k, "construction round-trips the kind");
    }
}

#[test]
fn calling_a_fixnum_is_not_a_procedure() {
    let r = classic_registry();
    let enc = r.reg.encode_immediate(r.fx, 5);
    let main = fun(
        "main",
        0,
        3,
        vec![
            Inst::Const { d: 1, imm: enc },
            Inst::Call {
                d: 2,
                f: 1,
                args: vec![],
            },
            Inst::Ret { s: 2 },
        ],
    );
    let e = run_expecting_error(r.reg, vec![main], MachineConfig::default());
    assert_eq!(e.kind, VmErrorKind::NotAProcedure);
}

#[test]
fn wrong_argument_count_is_arity_mismatch() {
    let r = classic_registry();
    let callee = fun("one-arg", 1, 3, vec![Inst::Ret { s: 1 }]);
    let main = fun(
        "main",
        0,
        3,
        vec![
            Inst::MakeClosure {
                d: 1,
                f: 1,
                free: vec![],
            },
            Inst::Call {
                d: 2,
                f: 1,
                args: vec![],
            },
            Inst::Ret { s: 2 },
        ],
    );
    let e = run_expecting_error(r.reg, vec![main, callee], MachineConfig::default());
    assert_eq!(e.kind, VmErrorKind::ArityMismatch);
    assert!(e.to_string().contains("one-arg"), "error names the callee");
}

#[test]
fn quotient_by_zero_is_divide_by_zero() {
    let r = classic_registry();
    let enc = r.reg.encode_immediate(r.fx, 6);
    let main = fun(
        "main",
        0,
        4,
        vec![
            Inst::Const { d: 1, imm: enc },
            Inst::Const { d: 2, imm: 0 },
            Inst::Bin {
                op: BinOp::Quot,
                d: 3,
                a: 1,
                b: 2,
            },
            Inst::Ret { s: 3 },
        ],
    );
    let e = run_expecting_error(r.reg, vec![main], MachineConfig::default());
    assert_eq!(e.kind, VmErrorKind::DivideByZero);
}

#[test]
fn load_through_garbage_pointer_is_bad_memory_access() {
    let r = classic_registry();
    let main = fun(
        "main",
        0,
        3,
        vec![
            // A "pair-tagged" word far outside the heap.
            Inst::Const {
                d: 1,
                imm: (1_i64 << 40) | 0b001,
            },
            Inst::LoadD {
                d: 2,
                p: 1,
                disp: 8 - 0b001,
            },
            Inst::Ret { s: 2 },
        ],
    );
    let e = run_expecting_error(r.reg, vec![main], MachineConfig::default());
    assert_eq!(e.kind, VmErrorKind::BadMemoryAccess);
}

#[test]
fn negative_dynamic_allocation_length_is_bad_rep_operation() {
    let r = classic_registry();
    let enc = r.reg.encode_immediate(r.fx, -1);
    let pair = r.pair;
    let main = fun(
        "main",
        0,
        3,
        vec![
            Inst::Const { d: 1, imm: enc },
            Inst::AllocFill {
                d: 2,
                len: RegImm::Reg(1),
                fill: 1,
                rep: pair,
            },
            Inst::Ret { s: 2 },
        ],
    );
    let e = run_expecting_error(r.reg, vec![main], MachineConfig::default());
    assert_eq!(e.kind, VmErrorKind::BadRepOperation);
}

#[test]
fn error_op_is_scheme_error() {
    let r = classic_registry();
    let enc = r.reg.encode_immediate(r.fx, 99);
    let main = fun(
        "main",
        0,
        2,
        vec![Inst::Const { d: 1, imm: enc }, Inst::ErrorOp { s: 1 }],
    );
    let e = run_expecting_error(r.reg, vec![main], MachineConfig::default());
    assert_eq!(e.kind, VmErrorKind::SchemeError);
    assert!(e.to_string().contains("99"), "error carries the value");
}

#[test]
fn missing_required_role_is_bad_program() {
    // A registry with no `closure` role cannot load any program.
    let mut reg = RepRegistry::new();
    let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
    let bo = reg.intern_immediate("boolean", 8, 0b010, 8).unwrap();
    let un = reg
        .intern_immediate("unspecified", 8, 0b0001_0010, 8)
        .unwrap();
    for (role, id) in [("fixnum", fx), ("boolean", bo), ("unspecified", un)] {
        reg.provide_role(role, id).unwrap();
    }
    let main = fun("main", 0, 2, vec![Inst::Ret { s: 0 }]);
    let e = Machine::new(program(reg, vec![main]), MachineConfig::default())
        .expect_err("load must fail");
    assert_eq!(e.kind, VmErrorKind::BadProgram);
    assert!(e.to_string().contains("closure"), "names the missing role");
}

#[test]
fn instruction_budget_exhaustion_is_timeout() {
    let r = classic_registry();
    let main = fun("main", 0, 2, vec![Inst::Jump { t: 0 }]);
    let e = run_expecting_error(
        r.reg,
        vec![main],
        MachineConfig {
            instruction_limit: Some(1000),
            ..Default::default()
        },
    );
    assert_eq!(e.kind, VmErrorKind::Timeout);
}

/// A main that loops forever allocating pairs, each keeping the previous
/// one alive through its fields — live data grows until the cap is hit.
fn allocating_loop(r: &Reg) -> CodeFun {
    let enc = r.reg.encode_immediate(r.fx, 0);
    let pair = r.pair;
    fun(
        "main",
        0,
        3,
        vec![
            Inst::Const { d: 1, imm: enc },
            Inst::AllocFill {
                d: 2,
                len: RegImm::Imm(2),
                fill: 1,
                rep: pair,
            },
            Inst::Move { d: 1, s: 2 },
            Inst::Jump { t: 1 },
        ],
    )
}

#[test]
fn oom_during_collect_when_live_data_fills_a_capped_heap() {
    let r = classic_registry();
    let main = allocating_loop(&r);
    let e = run_expecting_error(
        r.reg,
        vec![main],
        MachineConfig {
            fault: FaultPlan::none().with_heap_cap_words(256),
            ..Default::default()
        },
    );
    let VmErrorKind::OutOfMemory {
        requested,
        capacity,
        phase,
    } = e.kind
    else {
        panic!("expected OutOfMemory, got {e}");
    };
    assert_eq!(phase, OomPhase::Collect, "a collection ran first");
    assert!(capacity <= 256, "capacity respects the cap");
    assert!(requested <= capacity, "the request alone would have fit");
}

#[test]
fn oom_during_alloc_when_one_request_exceeds_the_cap() {
    let r = classic_registry();
    let enc = r.reg.encode_immediate(r.fx, 0);
    let pair = r.pair;
    let main = fun(
        "main",
        0,
        3,
        vec![
            Inst::Const { d: 1, imm: enc },
            Inst::AllocFill {
                d: 2,
                len: RegImm::Imm(100_000),
                fill: 1,
                rep: pair,
            },
            Inst::Ret { s: 2 },
        ],
    );
    let e = run_expecting_error(
        r.reg,
        vec![main],
        MachineConfig {
            fault: FaultPlan::none().with_heap_cap_words(256),
            ..Default::default()
        },
    );
    let VmErrorKind::OutOfMemory {
        requested, phase, ..
    } = e.kind
    else {
        panic!("expected OutOfMemory, got {e}");
    };
    assert_eq!(phase, OomPhase::Alloc, "the request could never fit");
    assert!(requested > 256, "requested words reflect the request");
}

#[test]
fn oom_phases_are_distinguishable_but_share_a_label() {
    let a = VmError::oom(100, 64, OomPhase::Alloc);
    let c = VmError::oom(8, 64, OomPhase::Collect);
    assert_ne!(a.kind, c.kind);
    assert_eq!(a.kind.label(), c.kind.label());
    assert!(a.is_oom() && c.is_oom());
}

#[test]
fn fail_alloc_at_fails_the_exact_ordinal() {
    let r = classic_registry();
    // Count the fault-free run's allocations first.
    let total = {
        let mut m = Machine::new(
            program(r.reg.clone(), vec![allocating_loop(&r)]),
            MachineConfig {
                instruction_limit: Some(100),
                ..Default::default()
            },
        )
        .unwrap();
        let _ = m.run().expect_err("loop times out");
        m.allocations()
    };
    assert!(total > 3, "the loop allocates");
    // Failing ordinal n stops the machine with exactly n-1 allocations done
    // and a structured alloc-phase OOM.
    for n in [1, 2, total] {
        let mut m = Machine::new(
            program(r.reg.clone(), vec![allocating_loop(&r)]),
            MachineConfig {
                instruction_limit: Some(100),
                fault: FaultPlan::none().with_fail_alloc_at(n),
                ..Default::default()
            },
        )
        .unwrap();
        let e = m.run().expect_err("scheduled allocation failure");
        assert!(e.is_oom(), "fault surfaces as OOM, got {e}");
        // The failed attempt is itself ordinal `n`, so the stream stops
        // exactly there, with n-1 objects actually created.
        assert_eq!(m.allocations(), n, "the fault consumed ordinal n");
        assert_eq!(
            m.counters.allocated_objects,
            n - 1,
            "objects completed before the fault"
        );
    }
}

#[test]
fn identical_plans_give_identical_outcomes() {
    let r = classic_registry();
    let run = |plan: FaultPlan| {
        let mut m = Machine::new(
            program(r.reg.clone(), vec![allocating_loop(&r)]),
            MachineConfig {
                instruction_limit: Some(500),
                fault: plan,
                ..Default::default()
            },
        )
        .unwrap();
        let res = m.run().map(|w| m.describe(w)).map_err(|e| e.to_string());
        (res, m.allocations(), m.counters.gc_count)
    };
    for plan in [
        FaultPlan::none()
            .with_gc_every_alloc()
            .with_heap_cap_words(512),
        FaultPlan::none().with_gc_jitter_seed(0xC0FFEE),
        FaultPlan::none().with_fail_alloc_at(7),
    ] {
        let a = run(plan.clone());
        let b = run(plan.clone());
        assert_eq!(a, b, "plan {plan:?} replays identically");
    }
}

#[test]
fn raise_without_handler_is_uncaught_condition() {
    let r = classic_registry();
    let enc = r.reg.encode_immediate(r.fx, 3);
    let main = fun(
        "main",
        0,
        2,
        vec![Inst::Const { d: 1, imm: enc }, Inst::RaiseOp { s: 1 }],
    );
    let e = run_expecting_error(r.reg, vec![main], MachineConfig::default());
    assert_eq!(e.kind, VmErrorKind::UncaughtCondition);
    assert_eq!(e.kind.label(), "uncaught-condition");
    assert!(
        e.to_string().contains('3'),
        "error describes the raised value"
    );
}

/// Registry rich enough for condition delivery: the trap path interns the
/// kind label as a symbol and allocates a `condition` record, so the
/// symbol, string, and condition roles must all exist.
fn delivery_registry() -> Reg {
    let mut r = classic_registry();
    let ch = r.reg.intern_immediate("char", 8, 0b0001_0010, 8).unwrap();
    let st = r.reg.intern_pointer("string", 0b101, false).unwrap();
    let sy = r.reg.intern_pointer("symbol", 0b110, false).unwrap();
    let cond = r.reg.intern_pointer("condition", 0b100, true).unwrap();
    for (role, id) in [
        ("char", ch),
        ("string", st),
        ("symbol", sy),
        ("condition", cond),
    ] {
        r.reg.provide_role(role, id).unwrap();
    }
    r
}

/// Builds `main` = handler installed around `body_insts`; the handler
/// ignores its condition argument and returns fixnum 7.
fn guarded(r: &Reg, mut body_insts: Vec<Inst>, nregs: usize) -> Vec<CodeFun> {
    let enc7 = r.reg.encode_immediate(r.fx, 7);
    let handler = fun(
        "handler",
        1,
        3,
        vec![Inst::Const { d: 2, imm: enc7 }, Inst::Ret { s: 2 }],
    );
    let resume_at = (2 + body_insts.len() + 1) as u32;
    let mut insts = vec![
        Inst::MakeClosure {
            d: 1,
            f: 1,
            free: vec![],
        },
        Inst::PushHandler {
            h: 1,
            d: 2,
            t: resume_at,
        },
    ];
    insts.append(&mut body_insts);
    insts.push(Inst::PopHandler);
    insts.push(Inst::Ret { s: 2 });
    vec![fun("main", 0, nregs, insts), handler]
}

#[test]
fn recoverable_kinds_are_handler_deliverable() {
    // Each recoverable fault class, raised under an installed handler,
    // becomes a normal value (the handler's 7) instead of an `Err`.
    let enc = |r: &Reg, n: i64| r.reg.encode_immediate(r.fx, n);

    // divide-by-zero
    let r = delivery_registry();
    let body = vec![
        Inst::Const {
            d: 3,
            imm: enc(&r, 1),
        },
        Inst::Const { d: 4, imm: 0 },
        Inst::Bin {
            op: BinOp::Quot,
            d: 3,
            a: 3,
            b: 4,
        },
    ];
    let mut m = Machine::new(
        program(r.reg.clone(), guarded(&r, body, 5)),
        MachineConfig::default(),
    )
    .unwrap();
    let w = m.run().expect("handler converts the trap");
    assert_eq!(m.describe(w), "7");

    // scheme-error (ErrorOp)
    let r = delivery_registry();
    let body = vec![
        Inst::Const {
            d: 3,
            imm: enc(&r, 99),
        },
        Inst::ErrorOp { s: 3 },
    ];
    let mut m = Machine::new(
        program(r.reg.clone(), guarded(&r, body, 4)),
        MachineConfig::default(),
    )
    .unwrap();
    let w = m.run().expect("handler converts the trap");
    assert_eq!(m.describe(w), "7");

    // uncaught-condition (RaiseOp) — delivered identity-preserving
    let r = delivery_registry();
    let body = vec![
        Inst::Const {
            d: 3,
            imm: enc(&r, 42),
        },
        Inst::RaiseOp { s: 3 },
    ];
    let mut m = Machine::new(
        program(r.reg.clone(), guarded(&r, body, 4)),
        MachineConfig::default(),
    )
    .unwrap();
    let w = m.run().expect("handler converts the trap");
    assert_eq!(m.describe(w), "7");
}

#[test]
fn terminal_kinds_ignore_installed_handlers() {
    // Timeout is terminal: a handler cannot absorb budget exhaustion.
    let r = delivery_registry();
    let body = vec![Inst::Jump { t: 2 }]; // spin on the jump forever
    let mut m = Machine::new(
        program(r.reg.clone(), guarded(&r, body, 4)),
        MachineConfig {
            instruction_limit: Some(1000),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::Timeout);

    // BadMemoryAccess is terminal: a wild load is a machine-integrity
    // fault, not a Scheme-visible condition.
    let r = delivery_registry();
    let body = vec![
        Inst::Const {
            d: 3,
            imm: (1_i64 << 40) | 0b001,
        },
        Inst::LoadD {
            d: 3,
            p: 3,
            disp: 8 - 0b001,
        },
    ];
    let mut m = Machine::new(
        program(r.reg.clone(), guarded(&r, body, 4)),
        MachineConfig::default(),
    )
    .unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::BadMemoryAccess);
}

#[test]
fn delivered_condition_carries_kind_and_payload() {
    // A handler that returns its argument: the machine's description of a
    // delivered scheme-error condition exposes the 4-field record.
    let r = delivery_registry();
    let enc = r.reg.encode_immediate(r.fx, 99);
    let handler = fun("handler", 1, 2, vec![Inst::Ret { s: 1 }]);
    let main = fun(
        "main",
        0,
        4,
        vec![
            Inst::MakeClosure {
                d: 1,
                f: 1,
                free: vec![],
            },
            Inst::PushHandler { h: 1, d: 2, t: 5 },
            Inst::Const { d: 3, imm: enc },
            Inst::ErrorOp { s: 3 },
            Inst::PopHandler,
            Inst::Ret { s: 2 },
        ],
    );
    let mut m = Machine::new(
        program(r.reg.clone(), vec![main, handler]),
        MachineConfig::default(),
    )
    .unwrap();
    let w = m.run().expect("handler returns the condition");
    // The condition renders as a discriminated record: field 0 is the
    // kind symbol, field 1 the payload (the 99).
    let desc = m.describe(w);
    assert!(desc.starts_with("#<condition "), "{desc}");
    assert!(desc.contains("scheme-error"), "{desc}");
    assert!(desc.contains("99"), "{desc}");
}

/// Function `fid`: it calls itself forever, not in tail position.
fn recurse_forever(fid: u32) -> CodeFun {
    fun(
        "recurse",
        0,
        2,
        vec![
            Inst::CallKnown {
                d: 1,
                f: fid,
                clo: 0,
                args: vec![],
            },
            Inst::Ret { s: 1 },
        ],
    )
}

#[test]
fn runaway_recursion_is_a_catchable_stack_overflow() {
    let config = || MachineConfig {
        max_depth: 100,
        ..Default::default()
    };
    let call = |clo, d| {
        [
            Inst::MakeClosure {
                d: clo,
                f: 2,
                free: vec![],
            },
            Inst::Call {
                d,
                f: clo,
                args: vec![],
            },
        ]
    };
    // Unhandled: a structured error once the stack holds 100 frames.
    let r = delivery_registry();
    let main = fun(
        "main",
        0,
        3,
        [&call(1, 2)[..], &[Inst::Ret { s: 2 }]].concat(),
    );
    let unused = fun("unused", 0, 1, vec![Inst::Ret { s: 0 }]);
    let prog = program(r.reg.clone(), vec![main, unused, recurse_forever(2)]);
    let mut m = Machine::new(prog, config()).unwrap();
    let e = m.run().expect_err("the recursion never ends");
    assert_eq!(e.kind, VmErrorKind::StackOverflow);
    assert_eq!(e.kind.label(), "stack-overflow");
    assert_eq!(m.counters.calls, 100, "99 calls nest, the 100th is refused");

    // Handled: delivery unwinds to the handler's frame, which then runs.
    let mut funs = guarded(&r, call(3, 4).to_vec(), 5);
    funs.push(recurse_forever(2));
    let mut m = Machine::new(program(r.reg.clone(), funs), config()).unwrap();
    let w = m.run().expect("the handler catches the overflow");
    assert_eq!(m.describe(w), "7");
}

/// Runs `funs` on the classic registry plus a `null` role (variadic
/// entry needs one) and returns the error's kind and exact message.
fn kind_and_message(funs: Vec<CodeFun>, config: MachineConfig) -> (VmErrorKind, String) {
    let mut reg = classic_registry().reg;
    let null = reg.intern_immediate("null", 8, 0b0010_0010, 8).unwrap();
    reg.provide_role("null", null).unwrap();
    let e = run_expecting_error(reg, funs, config);
    (e.kind, e.message)
}

#[test]
fn division_by_zero_messages_are_pinned() {
    let r = classic_registry();
    let six = r.reg.encode_immediate(r.fx, 6);
    for (op, text) in [
        (BinOp::Quot, "quotient by zero"),
        (BinOp::Rem, "remainder by zero"),
    ] {
        // The register and the immediate form report the same error.
        let (d, a) = (3, 1);
        for divide in [
            Inst::Bin { op, d, a, b: 2 },
            Inst::BinI { op, d, a, imm: 0 },
        ] {
            let insts = vec![
                Inst::Const { d: 1, imm: six },
                Inst::Const { d: 2, imm: 0 },
                divide,
                Inst::Ret { s: 3 },
            ];
            let got = kind_and_message(vec![fun("main", 0, 4, insts)], MachineConfig::default());
            assert_eq!(got, (VmErrorKind::DivideByZero, text.to_string()));
        }
    }
}

#[test]
fn heap_access_messages_are_pinned() {
    // A pair-tagged word far outside the heap: field 0 is word 2^37 + 1.
    let wild = Inst::Const {
        d: 1,
        imm: (1_i64 << 40) | 0b001,
    };
    let load = fun(
        "main",
        0,
        3,
        vec![
            wild.clone(),
            Inst::LoadD {
                d: 2,
                p: 1,
                disp: 8 - 0b001,
            },
            Inst::Ret { s: 2 },
        ],
    );
    let store = fun(
        "main",
        0,
        3,
        vec![
            wild,
            Inst::StoreD {
                p: 1,
                disp: 8 - 0b001,
                s: 1,
            },
            Inst::Ret { s: 1 },
        ],
    );
    let word = (1_u64 << 37) + 1;
    for (main, text) in [
        (load, format!("load outside heap at word {word}")),
        (store, format!("store outside heap at word {word}")),
    ] {
        let got = kind_and_message(vec![main], MachineConfig::default());
        assert_eq!(got, (VmErrorKind::BadMemoryAccess, text));
    }
}

#[test]
fn arity_messages_are_pinned() {
    let callee = |variadic| CodeFun {
        variadic,
        ..fun("two-args", 2, 4, vec![Inst::Ret { s: 1 }])
    };
    let main = fun(
        "main",
        0,
        3,
        vec![
            Inst::MakeClosure {
                d: 1,
                f: 1,
                free: vec![],
            },
            Inst::Call {
                d: 2,
                f: 1,
                args: vec![1],
            },
            Inst::Ret { s: 2 },
        ],
    );
    for (variadic, text) in [
        (false, "`two-args` takes 2 arguments, got 1"),
        (true, "`two-args` takes at least 2 arguments, got 1"),
    ] {
        let funs = vec![main.clone(), callee(variadic)];
        let got = kind_and_message(funs, MachineConfig::default());
        assert_eq!(got, (VmErrorKind::ArityMismatch, text.to_string()));
    }
}

#[test]
fn call_depth_message_is_pinned() {
    let main = fun(
        "main",
        0,
        2,
        vec![
            Inst::CallKnown {
                d: 1,
                f: 1,
                clo: 0,
                args: vec![],
            },
            Inst::Ret { s: 1 },
        ],
    );
    let config = MachineConfig {
        max_depth: 100,
        ..Default::default()
    };
    let got = kind_and_message(vec![main, recurse_forever(1)], config);
    let text = "stack overflow: a call would nest deeper than 100 frames";
    assert_eq!(got, (VmErrorKind::StackOverflow, text.to_string()));
}

#[test]
fn non_procedure_messages_are_pinned() {
    let r = classic_registry();
    let five = r.reg.encode_immediate(r.fx, 5);
    let call = |tail: bool| {
        if tail {
            Inst::TailCall { f: 1, args: vec![] }
        } else {
            Inst::Call {
                d: 2,
                f: 1,
                args: vec![],
            }
        }
    };
    for tail in [false, true] {
        let main = fun(
            "main",
            0,
            3,
            vec![
                Inst::Const { d: 1, imm: five },
                call(tail),
                Inst::Ret { s: 2 },
            ],
        );
        let got = kind_and_message(vec![main], MachineConfig::default());
        let text = "call of non-procedure 5".to_string();
        assert_eq!(got, (VmErrorKind::NotAProcedure, text));
    }
    // A closure-typed object whose code word names no function.
    let code = r.reg.encode_immediate(r.fx, 99);
    for tail in [false, true] {
        let main = fun(
            "main",
            0,
            3,
            vec![
                Inst::Const { d: 2, imm: code },
                Inst::AllocFill {
                    d: 1,
                    len: RegImm::Imm(1),
                    fill: 2,
                    rep: r.clo,
                },
                call(tail),
                Inst::Ret { s: 2 },
            ],
        );
        let got = kind_and_message(vec![main], MachineConfig::default());
        let text = "closure code word 99 is not a function id".to_string();
        assert_eq!(got, (VmErrorKind::NotAProcedure, text));
    }
}
