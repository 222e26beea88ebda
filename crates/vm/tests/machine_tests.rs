//! Integration tests driving the VM with hand-assembled programs over a
//! hand-built (library-style) representation registry.

use sxr_ir::rep::RepRegistry;
use sxr_sexp::Datum;
use sxr_vm::{
    BinOp, CmpOp, CodeFun, CodeProgram, Inst, Machine, MachineConfig, PoolEntry, RegImm, RepVmOp,
    VmErrorKind,
};

/// The classic tagging scheme the shipped prelude uses; tests build it by
/// hand the same way the library would.
struct Reg {
    reg: RepRegistry,
    fx: u32,
    pair: u32,
}

fn classic_registry() -> Reg {
    classic_registry_without(None)
}

/// The classic registry, with every role but `missing` provided.
fn classic_registry_without(missing: Option<&str>) -> Reg {
    let mut reg = RepRegistry::new();
    let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
    let bo = reg.intern_immediate("boolean", 8, 0b0000_0010, 8).unwrap();
    let ch = reg.intern_immediate("char", 8, 0b0001_0010, 8).unwrap();
    let nil = reg.intern_immediate("null", 8, 0b0010_0010, 8).unwrap();
    let un = reg
        .intern_immediate("unspecified", 8, 0b0011_0010, 8)
        .unwrap();
    let pair = reg.intern_pointer("pair", 0b001, false).unwrap();
    let vec_r = reg.intern_pointer("vector", 0b011, false).unwrap();
    let string = reg.intern_pointer("string", 0b101, false).unwrap();
    let symbol = reg.intern_pointer("symbol", 0b110, false).unwrap();
    let clo = reg.intern_pointer("closure", 0b111, false).unwrap();
    let reptype = reg.intern_pointer("rep-type", 0b100, true).unwrap();
    for (role, id) in [
        ("fixnum", fx),
        ("boolean", bo),
        ("char", ch),
        ("null", nil),
        ("unspecified", un),
        ("pair", pair),
        ("vector", vec_r),
        ("string", string),
        ("symbol", symbol),
        ("closure", clo),
        ("rep-type", reptype),
    ] {
        if Some(role) != missing {
            reg.provide_role(role, id).unwrap();
        }
    }
    Reg { reg, fx, pair }
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

fn run_program(prog: CodeProgram) -> (String, Machine) {
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    let w = m.run().unwrap();
    let s = m.describe(w);
    (s, m)
}

fn one_fun_program(reg: RepRegistry, main: CodeFun, pool: Vec<PoolEntry>) -> CodeProgram {
    CodeProgram {
        funs: vec![main],
        main: 0,
        pool,
        nglobals: 4,
        global_names: (0..4).map(|i| format!("g{i}")).collect(),
        registry: reg,
    }
}

#[test]
fn arithmetic_and_describe() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let main = fun(
        "main",
        0,
        4,
        vec![
            Inst::Const { d: 1, imm: enc(6) },
            Inst::Const { d: 2, imm: enc(7) },
            // fixnum multiply: (a >> 3) * b  (tags are 0)
            Inst::BinI {
                op: BinOp::Shr,
                d: 3,
                a: 1,
                imm: 3,
            },
            Inst::Bin {
                op: BinOp::Mul,
                d: 3,
                a: 3,
                b: 2,
            },
            Inst::Ret { s: 3 },
        ],
    );
    let (s, m) = run_program(one_fun_program(r.reg, main, vec![]));
    assert_eq!(s, "42");
    assert_eq!(m.counters.total, 5);
}

#[test]
fn pool_constants_roundtrip() {
    let r = classic_registry();
    let datum = sxr_sexp::parse_one("(1 (\"two\" #\\x) sym #t . 9)").unwrap();
    let main = fun(
        "main",
        0,
        2,
        vec![Inst::Pool { d: 1, idx: 0 }, Inst::Ret { s: 1 }],
    );
    let (s, _m) = run_program(one_fun_program(
        r.reg,
        main,
        vec![PoolEntry::Datum(datum.clone())],
    ));
    assert_eq!(s, datum.to_string());
}

#[test]
fn vector_literal_and_symbol_interning() {
    let r = classic_registry();
    let v = sxr_sexp::parse_one("#(a b a)").unwrap();
    let main = fun(
        "main",
        0,
        2,
        vec![Inst::Pool { d: 1, idx: 0 }, Inst::Ret { s: 1 }],
    );
    let (s, m) = run_program(one_fun_program(r.reg, main, vec![PoolEntry::Datum(v)]));
    assert_eq!(s, "#(a b a)");
    // Interning: the two `a`s are the same heap word.
    let _ = m;
}

#[test]
fn calls_closures_and_globals() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    // f1: (lambda (x) (+ x captured)) with captured in free slot 0
    let add1 = CodeFun {
        name: "adder".into(),
        arity: 1,
        variadic: false,
        nregs: 4,
        free_count: 1,
        insts: vec![
            // load free var
            Inst::LoadD {
                d: 2,
                p: 0,
                disp: 8 * 2 - 0b111,
            },
            // fixnum add: x + captured (tags 0)
            Inst::Bin {
                op: BinOp::Add,
                d: 3,
                a: 1,
                b: 2,
            },
            Inst::Ret { s: 3 },
        ],
        ptr_map: vec![true; 4],
        free_ptr_map: vec![],
    };
    let main = fun(
        "main",
        0,
        5,
        vec![
            Inst::Const { d: 1, imm: enc(10) },
            Inst::MakeClosure {
                d: 2,
                f: 1,
                free: vec![1],
            },
            Inst::GlobalSet { g: 0, s: 2 },
            Inst::GlobalGet { d: 3, g: 0 },
            Inst::Const { d: 1, imm: enc(32) },
            Inst::Call {
                d: 4,
                f: 3,
                args: vec![1],
            },
            Inst::Ret { s: 4 },
        ],
    );
    let prog = CodeProgram {
        funs: vec![main, add1],
        main: 0,
        pool: vec![],
        nglobals: 1,
        global_names: vec!["adder".into()],
        registry: r.reg,
    };
    let (s, m) = run_program(prog);
    assert_eq!(s, "42");
    assert_eq!(m.counters.calls, 1);
}

#[test]
fn tail_call_does_not_grow_stack() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    // loop(n): if n == 0 ret 99 else tail-call loop(n - 8)   [fixnum 1 = 8]
    let loop_fun = CodeFun {
        name: "loop".into(),
        arity: 1,
        variadic: false,
        nregs: 3,
        free_count: 0,
        insts: vec![
            Inst::JumpCmp {
                op: CmpOp::Ne,
                a: 1,
                b: RegImm::Imm(0),
                t: 3,
            },
            Inst::Const { d: 2, imm: enc(99) },
            Inst::Ret { s: 2 },
            Inst::BinI {
                op: BinOp::Sub,
                d: 1,
                a: 1,
                imm: 8,
            },
            Inst::TailCallKnown {
                f: 1,
                clo: 0,
                args: vec![1],
            },
        ],
        ptr_map: vec![true, true, true],
        free_ptr_map: vec![],
    };
    let main = fun(
        "main",
        0,
        3,
        vec![
            Inst::Const {
                d: 1,
                imm: enc(1_000_000),
            },
            Inst::MakeClosure {
                d: 2,
                f: 1,
                free: vec![],
            },
            Inst::Call {
                d: 1,
                f: 2,
                args: vec![1],
            },
            Inst::Ret { s: 1 },
        ],
    );
    let prog = CodeProgram {
        funs: vec![main, loop_fun],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let (s, m) = run_program(prog);
    assert_eq!(s, "99");
    assert!(m.counters.calls > 1_000_000);
}

#[test]
fn allocation_load_store_and_gc_survival() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let pair_tag = 0b001;
    // Build one live pair, then allocate garbage in a loop to force GCs,
    // then read the live pair's car.
    let main = fun(
        "main",
        0,
        8,
        vec![
            Inst::Const { d: 1, imm: enc(7) },
            Inst::Const { d: 2, imm: enc(35) },
            Inst::AllocFill {
                d: 3,
                len: RegImm::Imm(2),
                fill: 1,
                rep: 5,
            }, // pair rep id
            Inst::StoreD {
                p: 3,
                disp: 8 * 2 - pair_tag,
                s: 2,
            }, // cdr := 35
            // garbage loop: 50_000 iterations of a 2-field alloc
            Inst::Const { d: 4, imm: 50_000 }, // raw counter
            // L5:
            Inst::JumpCmp {
                op: CmpOp::Eq,
                a: 4,
                b: RegImm::Imm(0),
                t: 9,
            },
            Inst::AllocFill {
                d: 5,
                len: RegImm::Imm(2),
                fill: 1,
                rep: 5,
            },
            Inst::BinI {
                op: BinOp::Sub,
                d: 4,
                a: 4,
                imm: 1,
            },
            Inst::Jump { t: 5 },
            // L9: sum car + cdr of the live pair
            Inst::LoadD {
                d: 6,
                p: 3,
                disp: 8 - pair_tag,
            },
            Inst::LoadD {
                d: 7,
                p: 3,
                disp: 16 - pair_tag,
            },
            Inst::Bin {
                op: BinOp::Add,
                d: 6,
                a: 6,
                b: 7,
            },
            Inst::Ret { s: 6 },
        ],
    );
    // Register 4 holds a raw counter; mark it non-pointer.
    let mut main = main;
    main.ptr_map[4] = false;
    let prog = CodeProgram {
        funs: vec![main],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_words: 4096,
            instruction_limit: None,
            fault: Default::default(),
            verifier: None,
            ..Default::default()
        },
    )
    .unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "42");
    assert!(
        m.counters.gc_count > 10,
        "expected many GCs, got {}",
        m.counters.gc_count
    );
    assert_eq!(m.counters.allocated_objects, 50_001);
}

#[test]
fn generic_rep_ops_work_at_runtime() {
    // Build a *new* immediate type at run time through the generic ops —
    // the first-classness property.
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let main = fun(
        "main",
        0,
        8,
        vec![
            Inst::Pool { d: 1, idx: 0 }, // 'mytype symbol
            Inst::Const { d: 2, imm: enc(8) },
            Inst::Const {
                d: 3,
                imm: enc(0b0100_0010),
            },
            Inst::Const { d: 4, imm: enc(8) },
            Inst::Rep {
                op: RepVmOp::MakeImm,
                d: 5,
                args: vec![1, 2, 3, 4],
            },
            // inject raw 5, test, project
            Inst::Const { d: 6, imm: 5 }, // raw
            Inst::Rep {
                op: RepVmOp::Inject,
                d: 6,
                args: vec![5, 6],
            },
            Inst::Rep {
                op: RepVmOp::Test,
                d: 7,
                args: vec![5, 6],
            },
            // result = project(inject(5)) if test else 0
            Inst::JumpCmp {
                op: CmpOp::Eq,
                a: 7,
                b: RegImm::Imm(0),
                t: 11,
            },
            Inst::Rep {
                op: RepVmOp::Project,
                d: 6,
                args: vec![5, 6],
            },
            // tagged fixnum result: 5 << 3
            Inst::BinI {
                op: BinOp::Shl,
                d: 6,
                a: 6,
                imm: 3,
            },
            Inst::Ret { s: 6 },
        ],
    );
    let mut main = main;
    main.ptr_map[6] = false;
    main.ptr_map[7] = false;
    let prog = one_fun_program(
        r.reg,
        main,
        vec![PoolEntry::Datum(Datum::Symbol("mytype".into()))],
    );
    let (s, m) = run_program(prog);
    assert_eq!(s, "5");
    assert!(m.registry().by_name("mytype").is_some());
}

/// A program whose `rep-type` role is absent at load.  `main` forges the
/// object that describes the `rep-type` representation (a one-field record
/// of that representation holding its own id), runs `body`, and returns
/// r5 as a fixnum.  Registers: r2 the forged object, r3 `'rep-type`,
/// r5 a raw result.
fn without_rep_type_role(body: Vec<Inst>) -> CodeProgram {
    let r = classic_registry_without(Some("rep-type"));
    let rt = r.reg.by_name("rep-type").expect("registered, not provided");
    let mut insts = vec![
        Inst::Const {
            d: 1,
            imm: r.reg.encode_immediate(r.fx, rt as i64),
        },
        Inst::AllocFill {
            d: 2,
            len: RegImm::Imm(1),
            fill: 1,
            rep: rt,
        },
        Inst::Pool { d: 3, idx: 0 },
    ];
    insts.extend(body);
    insts.push(Inst::BinI {
        op: BinOp::Shl,
        d: 5,
        a: 5,
        imm: 3,
    });
    insts.push(Inst::Ret { s: 5 });
    let mut main = fun("main", 0, 9, insts);
    main.ptr_map[5] = false;
    let pool = ["rep-type", "other"].map(|s| PoolEntry::Datum(Datum::Symbol(s.into())));
    one_fun_program(r.reg, main, pool.to_vec())
}

#[test]
fn a_rep_type_role_missing_at_load_is_filled_by_its_first_provide() {
    let provide = |rep| Inst::Rep {
        op: RepVmOp::Provide,
        d: 4,
        args: vec![3, rep],
    };
    let test = Inst::Rep {
        op: RepVmOp::Test,
        d: 5,
        args: vec![2, 2],
    };
    let run = |body| {
        let mut m =
            Machine::new(without_rep_type_role(body), MachineConfig::default()).expect("loads");
        let outcome = m.run().map(|w| m.describe(w));
        (outcome, m)
    };

    // Before the provide, a generic rep op finds no role.
    let (e, _) = run(vec![test.clone()]);
    let e = e.expect_err("no rep-type role yet");
    assert_eq!(e.kind, VmErrorKind::BadProgram);
    assert!(e.message.contains("no `rep-type` role"), "{e}");

    // Only an object that describes itself can provide the first role.
    let (e, _) = run(vec![provide(1)]);
    assert_eq!(
        e.expect_err("a fixnum names no rep").kind,
        VmErrorKind::BadProgram
    );

    // After the provide, the same op succeeds: r2 is a rep-type.
    let (value, m) = run(vec![provide(2), test.clone()]);
    assert_eq!(value.expect("the role is provided"), "1");
    let rt = m.registry().by_name("rep-type");
    assert_eq!(m.registry().role("rep-type"), rt);

    // Providing the role again with another representation is refused.
    let other = vec![
        Inst::Pool { d: 6, idx: 1 },
        Inst::Const { d: 7, imm: 4 << 3 },
        Inst::Rep {
            op: RepVmOp::MakePtr,
            d: 8,
            args: vec![6, 7, 7],
        },
        provide(8),
    ];
    let (e, m) = run([vec![provide(2), test], other].concat());
    let e = e.expect_err("the role is taken");
    assert_eq!(e.kind, VmErrorKind::BadRepOperation);
    assert!(e.message.contains("already provided"), "{e}");
    assert_eq!(m.registry().role("rep-type"), rt);
}

#[test]
fn generic_rep_alloc_ref_set_len() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let main = fun(
        "main",
        0,
        8,
        vec![
            Inst::Pool { d: 1, idx: 0 },  // rep object for pair
            Inst::Const { d: 2, imm: 2 }, // raw length
            Inst::Const { d: 3, imm: enc(11) },
            Inst::Rep {
                op: RepVmOp::Alloc,
                d: 4,
                args: vec![1, 2, 3],
            },
            Inst::Const { d: 5, imm: 1 }, // raw index
            Inst::Const { d: 6, imm: enc(31) },
            Inst::Rep {
                op: RepVmOp::Set,
                d: 7,
                args: vec![1, 4, 5, 6],
            },
            Inst::Rep {
                op: RepVmOp::Ref,
                d: 6,
                args: vec![1, 4, 5],
            },
            Inst::Rep {
                op: RepVmOp::Ref,
                d: 3,
                args: vec![1, 4, 2],
            }, // index 2: out of range!
            Inst::Ret { s: 6 },
        ],
    );
    let mut main = main;
    main.ptr_map[2] = false;
    main.ptr_map[5] = false;
    let pair_id = r.pair;
    let prog = one_fun_program(r.reg, main, vec![PoolEntry::Rep(pair_id)]);
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    let err = m.run().unwrap_err();
    assert_eq!(err.kind, VmErrorKind::BadRepOperation);
    assert!(err.message.contains("out of range"));
}

#[test]
fn errors_are_reported() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    // Division by zero.
    let main = fun(
        "main",
        0,
        3,
        vec![
            Inst::Const { d: 1, imm: enc(1) },
            Inst::Const { d: 2, imm: 0 },
            Inst::Bin {
                op: BinOp::Quot,
                d: 1,
                a: 1,
                b: 2,
            },
            Inst::Ret { s: 1 },
        ],
    );
    let prog = one_fun_program(r.reg, main, vec![]);
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::DivideByZero);

    // Call of a non-procedure.
    let r = classic_registry();
    let main = fun(
        "main",
        0,
        3,
        vec![
            Inst::Const {
                d: 1,
                imm: r.reg.encode_immediate(r.fx, 5),
            },
            Inst::Call {
                d: 2,
                f: 1,
                args: vec![],
            },
            Inst::Ret { s: 2 },
        ],
    );
    let prog = one_fun_program(r.reg, main, vec![]);
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::NotAProcedure);
}

#[test]
fn pointers_at_the_top_of_the_address_space_are_bad_memory_accesses() {
    // -1, -2: all address bits set, with the closure and symbol tags.  The
    // field address one word past them must not wrap around to word 0.
    let r = classic_registry();
    let run = |body: Vec<Inst>| {
        let mut insts = vec![Inst::Const { d: 1, imm: -1 }, Inst::Const { d: 2, imm: -2 }];
        insts.extend(body);
        insts.push(Inst::Ret { s: 1 });
        let prog = one_fun_program(r.reg.clone(), fun("main", 0, 4, insts), vec![]);
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        m.run().unwrap_err().kind
    };
    let call = Inst::Call {
        d: 3,
        f: 1,
        args: vec![],
    };
    let closure_set = Inst::ClosureSet {
        clo: 1,
        idx: 0,
        val: 2,
    };
    let make_imm = Inst::Rep {
        op: RepVmOp::MakeImm,
        d: 3,
        args: vec![2, 2, 2, 2],
    };
    for body in [call, closure_set, make_imm] {
        let what = format!("{body:?}");
        assert_eq!(run(vec![body]), VmErrorKind::BadMemoryAccess, "{what}");
    }
}

#[test]
fn arity_mismatch() {
    let r = classic_registry();
    let id = fun("id", 1, 2, vec![Inst::Ret { s: 1 }]);
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
    let prog = CodeProgram {
        funs: vec![main, id],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    let err = m.run().unwrap_err();
    assert_eq!(err.kind, VmErrorKind::ArityMismatch);
    assert!(err.message.contains("id"));
}

#[test]
fn write_char_output_and_reset_counters() {
    let r = classic_registry();
    let ch = r.reg.role("char").unwrap();
    let enc_c = |c: char| r.reg.encode_immediate(ch, c as i64);
    let main = fun(
        "main",
        0,
        2,
        vec![
            Inst::Const {
                d: 1,
                imm: enc_c('h'),
            },
            Inst::WriteChar { s: 1 },
            Inst::ResetCounters,
            Inst::Const {
                d: 1,
                imm: enc_c('i'),
            },
            Inst::WriteChar { s: 1 },
            Inst::Ret { s: 1 },
        ],
    );
    let prog = one_fun_program(r.reg, main, vec![]);
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    m.run().unwrap();
    assert_eq!(m.output(), "hi");
    // Counters were reset mid-run: only the last three instructions count.
    assert_eq!(m.counters.total, 3);
}

#[test]
fn instruction_limit_timeout() {
    let r = classic_registry();
    let main = fun("main", 0, 2, vec![Inst::Jump { t: 0 }]);
    let prog = one_fun_program(r.reg, main, vec![]);
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_words: 1 << 12,
            instruction_limit: Some(10_000),
            fault: Default::default(),
            verifier: None,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::Timeout);
}

#[test]
fn missing_role_is_bad_program() {
    let mut reg = RepRegistry::new();
    let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
    reg.provide_role("fixnum", fx).unwrap();
    let main = fun("main", 0, 1, vec![Inst::Ret { s: 0 }]);
    let prog = CodeProgram {
        funs: vec![main],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: reg,
    };
    let err = Machine::new(prog, MachineConfig::default()).unwrap_err();
    assert_eq!(err.kind, VmErrorKind::BadProgram);
    assert!(err.message.contains("boolean"));
}

#[test]
fn intern_instruction_dedups() {
    let r = classic_registry();
    let main = fun(
        "main",
        0,
        5,
        vec![
            Inst::Pool { d: 1, idx: 0 }, // "abc" string 1
            Inst::Pool { d: 2, idx: 1 }, // "abc" string 2 (distinct object)
            Inst::Intern { d: 3, s: 1 },
            Inst::Intern { d: 4, s: 2 },
            Inst::Bin {
                op: BinOp::CmpEq,
                d: 1,
                a: 3,
                b: 4,
            },
            // raw 1/0 -> fixnum
            Inst::BinI {
                op: BinOp::Shl,
                d: 1,
                a: 1,
                imm: 3,
            },
            Inst::Ret { s: 1 },
        ],
    );
    let prog = one_fun_program(
        r.reg,
        main,
        vec![
            PoolEntry::Datum(Datum::String("abc".into())),
            PoolEntry::Datum(Datum::String("abc".into())),
        ],
    );
    let (s, _m) = run_program(prog);
    assert_eq!(s, "1");
}

#[test]
fn variadic_calls_build_rest_lists() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    // f(a . rest): returns rest (register 2 holds the built list).
    let f = CodeFun {
        name: "f".into(),
        arity: 1,
        variadic: true,
        nregs: 3,
        free_count: 0,
        insts: vec![Inst::Ret { s: 2 }],
        ptr_map: vec![true; 3],
        free_ptr_map: vec![],
    };
    let main = fun(
        "main",
        0,
        6,
        vec![
            Inst::MakeClosure {
                d: 1,
                f: 1,
                free: vec![],
            },
            Inst::Const { d: 2, imm: enc(1) },
            Inst::Const { d: 3, imm: enc(2) },
            Inst::Const { d: 4, imm: enc(3) },
            Inst::Call {
                d: 5,
                f: 1,
                args: vec![2, 3, 4],
            },
            Inst::Ret { s: 5 },
        ],
    );
    let prog = CodeProgram {
        funs: vec![main, f],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let (s, _m) = run_program(prog);
    assert_eq!(s, "(2 3)");
}

#[test]
fn argument_lists_longer_than_16_bits_arrive_whole() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let arity = 70_000;
    let wide = fun("wide", arity, arity + 1, vec![Inst::Ret { s: 1 }]);
    let mut args = vec![2];
    args.resize(arity, 0);
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
            Inst::Const { d: 2, imm: enc(7) },
            Inst::Call { d: 3, f: 1, args },
            Inst::Ret { s: 3 },
        ],
    );
    let prog = CodeProgram {
        funs: vec![main, wide],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let (s, _m) = run_program(prog);
    assert_eq!(s, "7");
}

#[test]
fn variadic_with_exact_arity_gets_empty_rest() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let f = CodeFun {
        name: "f".into(),
        arity: 1,
        variadic: true,
        nregs: 3,
        free_count: 0,
        insts: vec![Inst::Ret { s: 2 }],
        ptr_map: vec![true; 3],
        free_ptr_map: vec![],
    };
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
            Inst::Const { d: 2, imm: enc(1) },
            Inst::Call {
                d: 3,
                f: 1,
                args: vec![2],
            },
            Inst::Ret { s: 3 },
        ],
    );
    let prog = CodeProgram {
        funs: vec![main, f],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let (s, _m) = run_program(prog);
    assert_eq!(s, "()");
}

#[test]
fn variadic_too_few_args_is_arity_error() {
    let r = classic_registry();
    let f = CodeFun {
        name: "f".into(),
        arity: 2,
        variadic: true,
        nregs: 4,
        free_count: 0,
        insts: vec![Inst::Ret { s: 1 }],
        ptr_map: vec![true; 4],
        free_ptr_map: vec![],
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
    let prog = CodeProgram {
        funs: vec![main, f],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::ArityMismatch);
}

#[test]
fn callee_registers_start_at_reg_init() {
    // `leak` writes a secret into a high register and returns; `probe` has
    // the same register count and returns a register it never wrote.  The
    // probe's window occupies the same register-stack words that just held
    // the secret — they must read as the library's register-init word
    // (fixnum 0), not as the previous frame's contents.
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let leak = fun(
        "leak",
        0,
        8,
        vec![
            Inst::Const {
                d: 7,
                imm: enc(123),
            },
            Inst::Ret { s: 7 },
        ],
    );
    let probe = fun("probe", 0, 8, vec![Inst::Ret { s: 7 }]);
    let main = fun(
        "main",
        0,
        5,
        vec![
            Inst::MakeClosure {
                d: 1,
                f: 1,
                free: vec![],
            },
            Inst::MakeClosure {
                d: 2,
                f: 2,
                free: vec![],
            },
            Inst::Call {
                d: 3,
                f: 1,
                args: vec![],
            },
            Inst::Call {
                d: 4,
                f: 2,
                args: vec![],
            },
            Inst::Ret { s: 4 },
        ],
    );
    let prog = CodeProgram {
        funs: vec![main, leak, probe],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let (s, m) = run_program(prog);
    assert_eq!(
        s, "0",
        "a reused window must not leak the previous contents"
    );
    assert_eq!(m.counters.calls, 2);
}

#[test]
fn timeout_at_exact_budget() {
    // Three instructions run to completion under a budget of exactly 3...
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let insts = vec![
        Inst::Const { d: 1, imm: enc(1) },
        Inst::Const { d: 1, imm: enc(2) },
        Inst::Ret { s: 1 },
    ];
    let prog = one_fun_program(r.reg, fun("main", 0, 2, insts.clone()), vec![]);
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_words: 1 << 12,
            instruction_limit: Some(3),
            fault: Default::default(),
            verifier: None,
            ..Default::default()
        },
    )
    .unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "2");
    assert_eq!(m.counters.total, 3, "budget and counters agree");

    // ...and time out under a budget of 2, without counting the
    // instruction that was refused.
    let r = classic_registry();
    let prog = one_fun_program(r.reg, fun("main", 0, 2, insts), vec![]);
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_words: 1 << 12,
            instruction_limit: Some(2),
            fault: Default::default(),
            verifier: None,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::Timeout);
    assert_eq!(m.counters.total, 2, "timed-out instruction is not counted");
}

#[test]
fn reset_counters_consumes_budget() {
    // `ResetCounters` is not *counted*, but it still costs one unit of the
    // instruction budget, so budgets cannot be evaded by resetting.
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let insts = vec![
        Inst::ResetCounters,
        Inst::Const { d: 1, imm: enc(7) },
        Inst::Ret { s: 1 },
    ];
    let prog = one_fun_program(r.reg, fun("main", 0, 2, insts.clone()), vec![]);
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_words: 1 << 12,
            instruction_limit: Some(3),
            fault: Default::default(),
            verifier: None,
            ..Default::default()
        },
    )
    .unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "7");
    assert_eq!(m.counters.total, 2, "reset excluded from counts");

    let r = classic_registry();
    let prog = one_fun_program(r.reg, fun("main", 0, 2, insts), vec![]);
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_words: 1 << 12,
            instruction_limit: Some(2),
            fault: Default::default(),
            verifier: None,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::Timeout);
}

/// Regression test for the GC growth policy: with more than half the heap
/// occupied by live data, every collection recovers only a sliver, so the
/// heap must *grow* rather than re-collect on (nearly) every allocation.
/// Under the old heuristic (grow only when the request still does not fit
/// or free < capacity/4) this program performed ~100 collections and the
/// heap never grew; the monotone policy doubles the heap on the first
/// tight collection.
#[test]
fn gc_grow_policy_does_not_thrash_at_high_residency() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let nil = r.reg.encode_immediate(r.reg.role("null").unwrap(), 0);
    // 867 live pairs = 2601 words: > half of the 4096-word heap.
    let mut main = fun(
        "main",
        0,
        7,
        vec![
            Inst::Const { d: 1, imm: nil },
            Inst::Const { d: 2, imm: 867 }, // raw counter
            // L2: build the live chain (fill = current head, so every cell
            // stays reachable from r1).
            Inst::JumpCmp {
                op: CmpOp::Eq,
                a: 2,
                b: RegImm::Imm(0),
                t: 7,
            },
            Inst::AllocFill {
                d: 3,
                len: RegImm::Imm(2),
                fill: 1,
                rep: 5,
            },
            Inst::Move { d: 1, s: 3 },
            Inst::BinI {
                op: BinOp::Sub,
                d: 2,
                a: 2,
                imm: 1,
            },
            Inst::Jump { t: 2 },
            // L7: churn garbage while the live chain pins >50% residency.
            Inst::Const { d: 4, imm: 50_000 }, // raw counter
            Inst::JumpCmp {
                op: CmpOp::Eq,
                a: 4,
                b: RegImm::Imm(0),
                t: 12,
            },
            Inst::AllocFill {
                d: 5,
                len: RegImm::Imm(2),
                fill: 1,
                rep: 5,
            },
            Inst::BinI {
                op: BinOp::Sub,
                d: 4,
                a: 4,
                imm: 1,
            },
            Inst::Jump { t: 8 },
            // L12: done.
            Inst::Const { d: 6, imm: enc(99) },
            Inst::Ret { s: 6 },
        ],
    );
    main.ptr_map[2] = false;
    main.ptr_map[4] = false;
    let prog = CodeProgram {
        funs: vec![main],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_words: 4096,
            instruction_limit: None,
            fault: Default::default(),
            verifier: None,
            ..Default::default()
        },
    )
    .unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "99");
    assert!(
        m.heap_capacity() > 4096,
        "high-residency heap must grow, stayed at {}",
        m.heap_capacity()
    );
    assert!(
        m.counters.gc_count < 40,
        "growth policy thrashed: {} collections",
        m.counters.gc_count
    );
}

/// GC stress: a deep live list survives dozens of collections driven by
/// churn garbage, with every payload intact at the end.
#[test]
fn gc_stress_deep_live_list_survives_churn() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let nil = r.reg.encode_immediate(r.reg.role("null").unwrap(), 0);
    let pair_tag = 1;
    let mut main = fun(
        "main",
        0,
        8,
        vec![
            Inst::Const { d: 1, imm: nil },
            Inst::Const { d: 2, imm: 300 }, // raw build counter
            Inst::Const { d: 7, imm: enc(1) },
            // L3: build 300 live pairs, car = 1, cdr = chain.
            Inst::JumpCmp {
                op: CmpOp::Eq,
                a: 2,
                b: RegImm::Imm(0),
                t: 9,
            },
            Inst::AllocFill {
                d: 3,
                len: RegImm::Imm(2),
                fill: 7,
                rep: 5,
            },
            Inst::StoreD {
                p: 3,
                disp: 16 - pair_tag,
                s: 1,
            }, // cdr := chain
            Inst::Move { d: 1, s: 3 },
            Inst::BinI {
                op: BinOp::Sub,
                d: 2,
                a: 2,
                imm: 1,
            },
            Inst::Jump { t: 3 },
            // L9: churn 20_000 garbage pairs.
            Inst::Const { d: 4, imm: 20_000 }, // raw churn counter
            Inst::JumpCmp {
                op: CmpOp::Eq,
                a: 4,
                b: RegImm::Imm(0),
                t: 14,
            },
            Inst::AllocFill {
                d: 5,
                len: RegImm::Imm(2),
                fill: 7,
                rep: 5,
            },
            Inst::BinI {
                op: BinOp::Sub,
                d: 4,
                a: 4,
                imm: 1,
            },
            Inst::Jump { t: 10 },
            // L14: walk the list summing cars (raw adds of tagged fixnums
            // keep the sum a tagged fixnum).
            Inst::Const { d: 6, imm: 0 }, // raw accumulator
            Inst::JumpCmp {
                op: CmpOp::Eq,
                a: 1,
                b: RegImm::Imm(nil as i32),
                t: 20,
            },
            Inst::LoadD {
                d: 5,
                p: 1,
                disp: 8 - pair_tag,
            }, // car
            Inst::Bin {
                op: BinOp::Add,
                d: 6,
                a: 6,
                b: 5,
            },
            Inst::LoadD {
                d: 1,
                p: 1,
                disp: 16 - pair_tag,
            }, // cdr
            Inst::Jump { t: 15 },
            Inst::Ret { s: 6 },
        ],
    );
    main.ptr_map[2] = false;
    main.ptr_map[4] = false;
    main.ptr_map[6] = false;
    let prog = CodeProgram {
        funs: vec![main],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_words: 2048,
            instruction_limit: None,
            fault: Default::default(),
            verifier: None,
            ..Default::default()
        },
    )
    .unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "300", "all 300 payloads survived");
    assert!(
        m.counters.gc_count >= 3,
        "expected at least 3 forced collections, got {}",
        m.counters.gc_count
    );
}

#[test]
fn heap_grows_transparently() {
    // Keep a growing live list so collections cannot reclaim; the heap
    // must grow rather than fail.
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let nil = r.reg.encode_immediate(r.reg.role("null").unwrap(), 0);
    let pair_tag = 1;
    let mut main = fun(
        "main",
        0,
        6,
        vec![
            Inst::Const { d: 1, imm: nil },    // the (live, growing) list
            Inst::Const { d: 2, imm: 20_000 }, // raw counter
            // L2: loop head
            Inst::JumpCmp {
                op: CmpOp::Eq,
                a: 2,
                b: RegImm::Imm(0),
                t: 8,
            },
            Inst::AllocFill {
                d: 3,
                len: RegImm::Imm(2),
                fill: 1,
                rep: 5,
            },
            Inst::StoreD {
                p: 3,
                disp: 16 - pair_tag,
                s: 1,
            }, // cdr := list
            Inst::Move { d: 1, s: 3 },
            Inst::BinI {
                op: BinOp::Sub,
                d: 2,
                a: 2,
                imm: 1,
            },
            Inst::Jump { t: 2 },
            // L8: exit
            Inst::Const { d: 4, imm: enc(99) },
            Inst::Ret { s: 4 },
        ],
    );
    main.ptr_map[2] = false;
    let prog = CodeProgram {
        funs: vec![main],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_words: 1 << 10,
            instruction_limit: None,
            fault: Default::default(),
            verifier: None,
            ..Default::default()
        },
    )
    .unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "99");
    assert!(m.counters.allocated_objects == 20_000);
}

// ---------------------------------------------------------------------------
// Recoverable traps and resumable sessions
// ---------------------------------------------------------------------------

use sxr_vm::{StepResult, SuspendReason};

/// A classic registry extended with the `condition` role the trap path
/// needs to deliver conditions (the shipped prelude declares this in
/// reps.scm; hand-built tests do it here).
fn registry_with_conditions() -> Reg {
    let mut r = classic_registry();
    let cond = r.reg.intern_pointer("condition", 0b100, true).unwrap();
    r.reg.provide_role("condition", cond).unwrap();
    r
}

#[test]
fn run_after_error_is_deterministic_bad_program() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let main = fun(
        "main",
        0,
        3,
        vec![
            Inst::Const { d: 1, imm: enc(1) },
            Inst::Const { d: 2, imm: 0 },
            Inst::Bin {
                op: BinOp::Quot,
                d: 1,
                a: 1,
                b: 2,
            },
            Inst::Ret { s: 1 },
        ],
    );
    let prog = one_fun_program(r.reg, main, vec![]);
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::DivideByZero);
    // Running again after `Err` is pinned behaviour: a deterministic
    // BadProgram-class error, stable across repeated calls.
    let e1 = m.run().unwrap_err();
    assert_eq!(e1.kind, VmErrorKind::BadProgram);
    assert!(
        e1.message.contains("previously stopped with an error"),
        "{e1}"
    );
    let e2 = m.run().unwrap_err();
    assert_eq!(e1, e2, "identical on every subsequent call");
}

#[test]
fn run_after_completion_is_deterministic_bad_program() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let main = fun(
        "main",
        0,
        2,
        vec![Inst::Const { d: 1, imm: enc(5) }, Inst::Ret { s: 1 }],
    );
    let prog = one_fun_program(r.reg, main, vec![]);
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "5");
    let err = m.run().unwrap_err();
    assert_eq!(err.kind, VmErrorKind::BadProgram);
    assert!(err.message.contains("already ran to completion"), "{err}");
}

#[test]
fn resume_without_suspension_is_bad_program() {
    let r = classic_registry();
    let main = fun("main", 0, 1, vec![Inst::Ret { s: 0 }]);
    let prog = one_fun_program(r.reg, main, vec![]);
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    let err = m.resume(10).unwrap_err();
    assert_eq!(err.kind, VmErrorKind::BadProgram);
    assert!(err.message.contains("has not started"), "{err}");
}

#[test]
fn sliced_resumption_matches_uninterrupted_run() {
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let insts = vec![
        Inst::Const { d: 1, imm: enc(6) },
        Inst::Const { d: 2, imm: enc(7) },
        Inst::BinI {
            op: BinOp::Shr,
            d: 3,
            a: 1,
            imm: 3,
        },
        Inst::Bin {
            op: BinOp::Mul,
            d: 3,
            a: 3,
            b: 2,
        },
        Inst::Ret { s: 3 },
    ];
    // Oracle: uninterrupted run.
    let prog = one_fun_program(
        classic_registry().reg,
        fun("main", 0, 4, insts.clone()),
        vec![],
    );
    let mut oracle = Machine::new(prog, MachineConfig::default()).unwrap();
    let ow = oracle.run().unwrap();

    // Single-instruction fuel slices: suspension at every boundary must be
    // invisible — same result word, same counters.
    let prog = one_fun_program(r.reg, fun("main", 0, 4, insts), vec![]);
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    m.set_fuel(Some(1));
    let mut suspensions = 0;
    let mut step = m.start().unwrap();
    let w = loop {
        match step {
            StepResult::Done(w) => break w,
            StepResult::Suspended(SuspendReason::FuelExhausted) => {
                suspensions += 1;
                step = m.resume(1).unwrap();
            }
        }
    };
    assert_eq!(w, ow, "identical result word");
    assert_eq!(m.counters, oracle.counters, "identical counters");
    assert_eq!(suspensions, 4, "one suspension per refused instruction");
    assert_eq!(
        m.fuel(),
        Some(0),
        "every slice unit was spent on an instruction"
    );
}

#[test]
fn push_handler_intercepts_recoverable_trap() {
    let r = registry_with_conditions();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    // handler: arity 1, ignores the condition, returns 7.
    let handler = fun(
        "handler",
        1,
        3,
        vec![Inst::Const { d: 2, imm: enc(7) }, Inst::Ret { s: 2 }],
    );
    let mut main = fun(
        "main",
        0,
        5,
        vec![
            Inst::MakeClosure {
                d: 1,
                f: 1,
                free: vec![],
            },
            Inst::PushHandler { h: 1, d: 2, t: 6 },
            Inst::Const { d: 3, imm: enc(1) },
            Inst::Const { d: 4, imm: 0 }, // raw 0 divisor
            Inst::Bin {
                op: BinOp::Quot,
                d: 3,
                a: 3,
                b: 4,
            }, // traps: divide by zero
            Inst::PopHandler,             // skipped by the unwound path
            Inst::Ret { s: 2 },
        ],
    );
    main.ptr_map[4] = false;
    let prog = CodeProgram {
        funs: vec![main, handler],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    let w = m.run().unwrap();
    assert_eq!(
        m.describe(w),
        "7",
        "handler's return value replaces the trap"
    );
    assert_eq!(m.counters.calls, 1, "handler invocation is a counted call");
}

#[test]
fn trap_without_condition_role_stays_terminal() {
    // Without a `condition` role the machine cannot build a condition
    // object, so delivery fails and the original structured error surfaces
    // — a registry without the role keeps the pre-trap behaviour exactly.
    let r = classic_registry();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let handler = fun(
        "handler",
        1,
        3,
        vec![Inst::Const { d: 2, imm: enc(7) }, Inst::Ret { s: 2 }],
    );
    let mut main = fun(
        "main",
        0,
        5,
        vec![
            Inst::MakeClosure {
                d: 1,
                f: 1,
                free: vec![],
            },
            Inst::PushHandler { h: 1, d: 2, t: 6 },
            Inst::Const { d: 3, imm: enc(1) },
            Inst::Const { d: 4, imm: 0 },
            Inst::Bin {
                op: BinOp::Quot,
                d: 3,
                a: 3,
                b: 4,
            },
            Inst::PopHandler,
            Inst::Ret { s: 2 },
        ],
    );
    main.ptr_map[4] = false;
    let prog = CodeProgram {
        funs: vec![main, handler],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::DivideByZero);
}

#[test]
fn terminal_faults_ignore_handlers() {
    // BadProgram-class faults (here: PopHandler with none installed after
    // the handler already fired... simplest terminal fault: bad memory
    // access) must not be deliverable to Scheme handlers.
    let r = registry_with_conditions();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let handler = fun(
        "handler",
        1,
        3,
        vec![Inst::Const { d: 2, imm: enc(7) }, Inst::Ret { s: 2 }],
    );
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
            Inst::Const { d: 3, imm: enc(1) },
            Inst::LoadD {
                d: 3,
                p: 3,
                disp: 1 << 20,
            }, // wild load: BadMemoryAccess
            Inst::PopHandler,
            Inst::Ret { s: 2 },
        ],
    );
    let prog = CodeProgram {
        funs: vec![main, handler],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    assert_eq!(m.run().unwrap_err().kind, VmErrorKind::BadMemoryAccess);
}

#[test]
fn accept_all_verifier_does_not_license_a_wild_jump() {
    // A verifier hook only decides whether a structurally sound program
    // loads; it cannot admit code the machine's own structural check
    // refuses.  A jump far past the end of `main` is refused at load,
    // with a hook that accepts everything as without one.  Falling off
    // the last instruction is structurally sound, so the run-time fetch
    // guard still ends it in a structured error.
    fn accept_all(_: &CodeProgram) -> Result<(), sxr_vm::VmError> {
        Ok(())
    }
    for verifier in [Some(accept_all as sxr_vm::VerifierHook), None] {
        let config = MachineConfig {
            verifier,
            ..MachineConfig::default()
        };
        let r = classic_registry();
        let main = fun("main", 0, 1, vec![Inst::Jump { t: 1_000_000 }]);
        let prog = one_fun_program(r.reg, main, vec![]);
        let err = Machine::new(prog, config.clone()).unwrap_err();
        assert_eq!(err.kind, VmErrorKind::BadProgram);
        assert!(err.message.contains("target 1000000"), "{err}");

        let r = classic_registry();
        let main = fun("main", 0, 2, vec![Inst::Const { d: 1, imm: 8 }]);
        let prog = one_fun_program(r.reg, main, vec![]);
        let mut m = Machine::new(prog, config).unwrap();
        let err = m.run().unwrap_err();
        assert_eq!(err.kind, VmErrorKind::BadProgram);
        assert!(err.message.contains("fell off the end"), "{err}");
    }
}

#[test]
fn handler_closure_survives_a_collection_during_delivery() {
    // The handler closure is referenced only by its handler entry (its
    // register is overwritten), and the heap is full of garbage when the
    // trap fires, so building the condition collects.  The closure must be
    // a root across that collection, or the handler call reads a stale
    // address.
    let r = registry_with_conditions();
    let enc = |n: i64| r.reg.encode_immediate(r.fx, n);
    let handler = fun(
        "handler",
        1,
        3,
        vec![Inst::Const { d: 2, imm: enc(7) }, Inst::Ret { s: 2 }],
    );
    let mut main = fun(
        "main",
        0,
        6,
        vec![
            Inst::MakeClosure {
                d: 1,
                f: 1,
                free: vec![],
            },
            Inst::PushHandler { h: 1, d: 2, t: 8 },
            Inst::Const { d: 1, imm: enc(0) },
            Inst::AllocFill {
                d: 3,
                len: RegImm::Imm(40),
                fill: 1,
                rep: 6,
            }, // vector rep id; garbage once r3 is overwritten
            Inst::Const { d: 3, imm: enc(0) },
            Inst::Const { d: 4, imm: enc(1) },
            Inst::Const { d: 5, imm: 0 }, // raw 0 divisor
            Inst::Bin {
                op: BinOp::Quot,
                d: 4,
                a: 4,
                b: 5,
            }, // traps: divide by zero
            Inst::Ret { s: 2 },
        ],
    );
    main.ptr_map[5] = false;
    let prog = CodeProgram {
        funs: vec![main, handler],
        main: 0,
        pool: vec![],
        nglobals: 0,
        global_names: vec![],
        registry: r.reg,
    };
    let config = MachineConfig {
        heap_words: 64,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(prog, config).unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "7");
    assert_eq!(m.counters.gc_count, 1, "delivery collected");
}
