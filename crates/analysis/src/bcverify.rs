//! Load-time bytecode verifier.
//!
//! [`verify_program`] runs a dataflow analysis over a loadable
//! [`CodeProgram`] and either proves it well-formed or rejects it with a
//! `{fun, pc, rule}`-addressed [`Rejection`].  Installed as the machine's
//! load-time verifier it is an admission gate: a rejected program never
//! starts, and an admitted one runs on the VM's ordinary bounds-checked
//! step loop.  The design follows the JVM verifier: per-function
//! abstract interpretation to a fixpoint over the control-flow graph, with
//! static checks applied to *every* instruction and dataflow rules applied
//! to *reachable* instructions only (compiled code legitimately carries
//! unreachable tails after `ErrorOp`/`RaiseOp` terminators).
//!
//! Structure (roles, frame sizes, every index bound, operand and capture
//! counts) is not decided here: [`sxr_vm::check_structure`] owns it, the
//! machine refuses its first finding at load, and this verifier reports
//! each finding under a [`Rule`].  What the verifier adds is typing and
//! dataflow, plus two static rules of its own (`const-ptr` and tagged
//! parameter registers the root map leaves unscanned).
//!
//! # The abstract domain
//!
//! Each register holds an [`Rv`]:
//!
//! * [`Rv::Uninit`] — not written on some path reaching this point;
//! * [`Rv::Raw`] — an untagged machine word (ALU results, projected
//!   payloads, raw headers);
//! * [`Rv::Tagged`] — a properly tagged Scheme value of unknown
//!   representation;
//! * [`Rv::Ptr`] — a tagged heap pointer whose representation is one of a
//!   known [`TagSet`], with the allocating function remembered for closure
//!   values (that powers the `ClosureSet` free-slot checks).
//!
//! The join moves *up*: `Uninit` absorbs everything (a merge where one
//! predecessor never wrote the register makes it unreadable), pointer sets
//! union, and `Raw ⊔ Tagged = Tagged` — mirroring the code generator's own
//! kind join, where a register any writer tags must be GC-scanned.
//!
//! # Where states are kept
//!
//! Only *leaders* — pc 0 and every `Jump`/`JumpCmp`/`PushHandler` target
//! — store an abstract state; every other pc has exactly one predecessor,
//! its fall-through.  The worklist pops the lowest pending leader, clones
//! its state once, and steps that one state in place down the
//! straight-line run, joining in place at each edge into a leader.  Lowest
//! first means a leader is walked after every forward edge into it has
//! joined, so code without loops is walked once, and in a function without
//! back edges a popped leader's state is moved out instead of cloned:
//! nothing joins into it again.  Memory is O(insts + leaders ×
//! nregs) per function, and so is one pass over it, where a state at
//! every pc costs O(insts × nregs): the per-pc register files, not the
//! register count alone, made large straight-line functions expensive.
//!
//! # What is proved, and what is trusted
//!
//! The verifier proves, on top of the structural check: every read
//! register was written on every path; control never falls off the end of
//! a function; memory bases are never raw words;
//! provably tagged values never land in registers or closure slots the GC
//! is told not to scan; and the handler stack is balanced — never popped
//! below zero, path-consistent at joins, and empty at returns and tail
//! calls.
//!
//! Two flows remain *trusted*, exactly as they are for compiled code: a
//! raw word flowing into a GC-scanned position is accepted (the library's
//! inject sequences produce tagged-valid words the verifier cannot
//! distinguish from arbitrary arithmetic), and heap loads/stores are
//! bounds-checked at run time.  The machine checks every other access too,
//! so a wrong proof surfaces as a structured error, never as memory
//! unsafety.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::lattice::TagSet;
use sxr_ir::rep::{roles, RepId, RepRegistry};
use sxr_vm::{
    check_structure, CodeFun, CodeProgram, Inst, Malformed, MalformedKind, PoolEntry, Reg, RegImm,
    RepVmOp, VmError,
};

/// The verifier's rule set.  Every rejection names exactly one rule; the
/// [`Rule::label`] strings are stable — tests, the CLI, and
/// `VmErrorKind::RejectedByVerifier` all key on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A register operand is outside the function's frame.
    RegOob,
    /// A jump, branch, or handler resume target is outside the function.
    JumpOob,
    /// A constant-pool index is out of bounds (or a pool entry references
    /// an unknown representation).
    PoolOob,
    /// A global index is out of bounds.
    GlobalOob,
    /// A function id (call target, closure code, or entry point) is out of
    /// bounds.
    FnOob,
    /// An allocation that could never execute: immediate representation,
    /// unknown representation id, or negative static length.
    BadAlloc,
    /// Malformed operand structure: wrong `Rep` operand count, or a
    /// closure capture/patch that does not match the target function's
    /// free-slot layout.
    BadArgs,
    /// The instruction requires a representation role the registry does
    /// not provide (`char` for `WriteChar`, `pair`/`null` for variadic
    /// entry, `rep-type` for generic rep operations, ...).
    MissingRole,
    /// Execution can fall off the end of the function.
    FallOffEnd,
    /// A register may be read before any write on some path.
    DefBeforeUse,
    /// A memory access (or call/intern/handler operand that the machine
    /// dereferences) whose base may be a raw, untagged word.
    RawMemBase,
    /// A `Const` with a pointer-tagged bit pattern written to a GC-scanned
    /// register — the collector would chase a fabricated pointer.
    ConstPtr,
    /// A provably tagged value written to a register the GC root map says
    /// not to scan (or a parameter register marked unscanned).
    TaggedIntoRaw,
    /// A provably tagged value captured into (or patched over) a closure
    /// free slot the GC is told not to scan.
    TaggedIntoRawSlot,
    /// `ClosureSet` on a value not proven to be a closure of a known
    /// function — the patch width cannot be checked statically.
    ClosureSetUnknown,
    /// `PopHandler` with no handler installed on some path.
    HandlerUnderflow,
    /// Return or tail call with a handler still installed by this frame.
    HandlerLeak,
    /// Control-flow join where paths disagree on handler depth.
    HandlerJoinMismatch,
}

impl Rule {
    /// The stable, user-visible name of the rule.
    pub fn label(self) -> &'static str {
        match self {
            Rule::RegOob => "reg-oob",
            Rule::JumpOob => "jump-oob",
            Rule::PoolOob => "pool-oob",
            Rule::GlobalOob => "global-oob",
            Rule::FnOob => "fn-oob",
            Rule::BadAlloc => "bad-alloc",
            Rule::BadArgs => "bad-args",
            Rule::MissingRole => "missing-role",
            Rule::FallOffEnd => "fall-off-end",
            Rule::DefBeforeUse => "def-before-use",
            Rule::RawMemBase => "raw-mem-base",
            Rule::ConstPtr => "const-ptr",
            Rule::TaggedIntoRaw => "tagged-into-raw",
            Rule::TaggedIntoRawSlot => "tagged-into-raw-slot",
            Rule::ClosureSetUnknown => "closure-set-unknown",
            Rule::HandlerUnderflow => "handler-underflow",
            Rule::HandlerLeak => "handler-leak",
            Rule::HandlerJoinMismatch => "handler-join-mismatch",
        }
    }
}

/// One reason the verifier refused a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Index of the function containing the violation (the entry function
    /// for program-level problems).
    pub fun: u32,
    /// Instruction offset of the violation within that function.
    pub pc: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fun {} pc {}: [{}] {}",
            self.fun,
            self.pc,
            self.rule.label(),
            self.detail
        )
    }
}

/// The outcome of verifying a whole program.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All rejections found, in (function, pc) order.  Structural problems
    /// are collected exhaustively; each function additionally reports at
    /// most one dataflow violation (analysis of that function stops there).
    pub rejections: Vec<Rejection>,
    /// Number of functions analyzed.
    pub funs: usize,
    /// Total instructions structurally checked.
    pub insts: usize,
    /// Abstract instructions executed by the dataflow pass, summed over
    /// functions: a deterministic measure of verification work.
    pub steps: usize,
    /// Abstract register words the dataflow pass copied or joined: `nregs`
    /// for every state it cloned and every state it joined into another,
    /// summed over functions.  Steps alone miss this cost of keeping and
    /// merging whole register files.
    pub state_words: usize,
}

impl VerifyReport {
    /// Did the program pass?
    pub fn is_clean(&self) -> bool {
        self.rejections.is_empty()
    }

    /// The first (lowest function, lowest pc) rejection, if any.
    pub fn first(&self) -> Option<&Rejection> {
        self.rejections.first()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "verified: {} function(s), {} instruction(s)",
                self.funs, self.insts
            )
        } else {
            writeln!(f, "rejected ({} problem(s)):", self.rejections.len())?;
            for r in &self.rejections {
                writeln!(f, "  {r}")?;
            }
            Ok(())
        }
    }
}

/// Adapter with the [`sxr_vm::VerifierHook`] signature: verifies `program`
/// and converts the first rejection into
/// [`sxr_vm::VmErrorKind::RejectedByVerifier`].  Install it via
/// [`sxr_vm::MachineConfig::verifier`] to refuse unverifiable programs at
/// load.
pub fn verifier_hook(program: &CodeProgram) -> Result<(), VmError> {
    let report = verify_program(program);
    match report.first() {
        None => Ok(()),
        Some(r) => Err(VmError::rejected(
            r.fun,
            r.pc,
            r.rule.label(),
            r.detail.clone(),
        )),
    }
}

/// What the verifier knows about one register at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rv {
    /// Possibly never written on some path to this point.
    Uninit,
    /// An untagged machine word.
    Raw,
    /// A tagged value of unknown representation.
    Tagged,
    /// A tagged heap pointer.
    Ptr {
        /// The possible representations.
        tags: TagSet,
        /// The function a `MakeClosure` built this value over, when that
        /// is the unique provenance.
        fid: Option<u32>,
    },
}

impl Rv {
    fn is_tagged(self) -> bool {
        matches!(self, Rv::Tagged | Rv::Ptr { .. })
    }

    /// The lattice join (`Uninit` is top: it poisons reads).
    fn join(self, other: Rv) -> Rv {
        match (self, other) {
            (Rv::Uninit, _) | (_, Rv::Uninit) => Rv::Uninit,
            (Rv::Raw, Rv::Raw) => Rv::Raw,
            (Rv::Ptr { tags: a, fid: fa }, Rv::Ptr { tags: b, fid: fb }) => Rv::Ptr {
                tags: a.union(&b),
                fid: if fa == fb { fa } else { None },
            },
            // Raw ⊔ Tagged = Tagged, matching the code generator's kind
            // join: if any writer tags the register, the GC scans it.
            _ => Rv::Tagged,
        }
    }
}

/// Abstract machine state at one program point: one [`Rv`] per register
/// plus the number of handlers this frame has installed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    regs: Vec<Rv>,
    depth: u32,
}

/// How control leaves an instruction.
enum Flow {
    /// Falls through to `pc + 1`.
    Fall,
    /// Jumps to `t` unconditionally.
    Jump(u32),
    /// Branches: `t` or fall through.
    Branch(u32),
    /// `PushHandler`: falls through with one more handler; the trap edge
    /// resumes at `t` at the *current* depth (the machine pops the handler
    /// before delivering) with `d` freshly defined.
    Push { t: u32, d: Reg },
    /// `PopHandler`: falls through with one less handler.
    Pop,
    /// A terminator (return, tail call, raise): no successors.
    Stop,
}

/// Verifies `program`, returning every structural problem and (for
/// structurally sound functions) at most one dataflow violation per
/// function.  A clean report admits the program; see the module docs for
/// the exact contract.
pub fn verify_program(program: &CodeProgram) -> VerifyReport {
    let mut report = VerifyReport::default();
    let mut structure = check_structure(program).into_iter().peekable();
    if structure.peek().is_some_and(|m| m.fun.is_none()) {
        // Without the boot roles the typing rules below have no ground
        // truth; stop at the program-level report.
        report.rejections.extend(structure.map(|m| Rejection {
            fun: program.main,
            pc: m.pc,
            rule: structural_rule(m.kind),
            detail: m.detail,
        }));
        return report;
    }

    report.funs = program.funs.len();
    for (fid, fun) in program.funs.iter().enumerate() {
        report.insts += fun.insts.len();
        let v = FnVerifier {
            program,
            registry: &program.registry,
            fun,
            fid: fid as u32,
        };
        let before = report.rejections.len();
        let findings = std::iter::from_fn(|| structure.next_if(|m| m.fun == Some(v.fid)));
        v.static_rules(findings, &mut report);
        if report.rejections.len() == before {
            if let Err(r) = v.dataflow(&mut report) {
                report.rejections.push(r);
            }
        }
    }
    report
}

/// The rule a structural finding of `sxr-vm` is reported under.
fn structural_rule(kind: MalformedKind) -> Rule {
    match kind {
        MalformedKind::Main | MalformedKind::Fun => Rule::FnOob,
        MalformedKind::Role => Rule::MissingRole,
        MalformedKind::PoolRep | MalformedKind::Pool => Rule::PoolOob,
        MalformedKind::Empty => Rule::FallOffEnd,
        MalformedKind::Frame | MalformedKind::Reg => Rule::RegOob,
        MalformedKind::Target => Rule::JumpOob,
        MalformedKind::Global => Rule::GlobalOob,
        MalformedKind::Alloc => Rule::BadAlloc,
        MalformedKind::RepOperands | MalformedKind::Captures => Rule::BadArgs,
    }
}

struct FnVerifier<'a> {
    program: &'a CodeProgram,
    registry: &'a RepRegistry,
    fun: &'a CodeFun,
    fid: u32,
}

impl<'a> FnVerifier<'a> {
    fn reject(&self, pc: usize, rule: Rule, detail: String) -> Rejection {
        Rejection {
            fun: self.fid,
            pc: pc as u32,
            rule,
            detail,
        }
    }

    /// May register `r` hold a tagged value, per the GC root map?
    /// Registers past the end of the map are conservatively scanned.
    fn ptr(&self, r: Reg) -> bool {
        self.fun.ptr_map.get(r as usize).copied().unwrap_or(true)
    }

    // ----- static rules (every instruction, reachable or not) -----

    /// Reports this function's structural `findings` (in pc order) with
    /// the verifier's own static rules interleaved at their pcs: tagged
    /// parameter registers the root map leaves unscanned, and constants
    /// carrying a pointer tag into scanned registers.
    fn static_rules(&self, findings: impl Iterator<Item = Malformed>, report: &mut VerifyReport) {
        let mut findings = findings.peekable();
        let structural =
            |m: Malformed| self.reject(m.pc as usize, structural_rule(m.kind), m.detail);
        let mut out = |r: Rejection| report.rejections.push(r);

        // An empty function or a frame too small for its parameters is
        // all there is to say about it.
        if let Some(m) =
            findings.next_if(|m| matches!(m.kind, MalformedKind::Empty | MalformedKind::Frame))
        {
            return out(structural(m));
        }
        for r in 0..self.fun.entry_regs() {
            if !self.ptr(r as Reg) {
                out(self.reject(
                    0,
                    Rule::TaggedIntoRaw,
                    format!(
                        "parameter register r{r} holds a tagged value on entry \
                         but the GC root map marks it unscanned"
                    ),
                ));
            }
        }
        for (pc, inst) in self.fun.insts.iter().enumerate() {
            while let Some(m) = findings.next_if(|m| m.pc as usize == pc) {
                out(structural(m));
            }
            if let Inst::Const { d, imm } = inst {
                let pattern = (*imm as u64 & 0b111) as usize;
                if self.ptr(*d) && self.registry.pointer_pattern_table()[pattern] {
                    out(self.reject(
                        pc,
                        Rule::ConstPtr,
                        format!(
                            "constant {imm:#x} carries a pointer tag; the GC \
                             would chase a fabricated pointer in r{d}"
                        ),
                    ));
                }
            }
        }
    }

    // ----- dataflow pass (reachable instructions only) -----

    /// The worklist fixpoint.  States live only at leaders; a popped
    /// leader's state is cloned once (moved out when the function has no
    /// back edge) and stepped in place down its straight-line run, joining
    /// into every leader it reaches.  The worklist pops the lowest pending
    /// leader, so every forward edge into a leader is joined before that
    /// leader is walked: code without back edges is walked once, and only
    /// a loop sends the walk back to a leader it has passed.  Adds its work
    /// to `report`'s `steps` and `state_words`.
    fn dataflow(&self, report: &mut VerifyReport) -> Result<(), Rejection> {
        let fun = self.fun;
        let len = fun.insts.len();
        let mut leader = vec![false; len];
        leader[0] = true;
        // Without a back edge no leader is joined into after it is walked.
        let mut back_edges = false;
        for (pc, inst) in fun.insts.iter().enumerate() {
            if let Some(t) = inst.target() {
                leader[t as usize] = true;
                back_edges |= t as usize <= pc;
            }
        }
        let mut entry = AbsState {
            regs: vec![Rv::Uninit; fun.nregs],
            depth: 0,
        };
        for r in entry.regs.iter_mut().take(self.fun.entry_regs()) {
            *r = Rv::Tagged;
        }
        let mut states = BTreeMap::from([(0usize, entry)]);
        let mut work = BTreeSet::from([0usize]);
        let words = &mut report.state_words;

        while let Some(start) = work.pop_first() {
            let mut st = if back_edges {
                states[&start].clone()
            } else {
                states.remove(&start).expect("queued leader has a state")
            };
            *words += fun.nregs;
            let mut pc = start;
            loop {
                report.steps += 1;
                let next = match self.step(pc, &fun.insts[pc], &mut st)? {
                    Flow::Fall => pc + 1,
                    Flow::Jump(t) => {
                        self.join_into(&mut states, &mut work, words, t as usize, &st)?;
                        break;
                    }
                    Flow::Branch(t) => {
                        self.join_into(&mut states, &mut work, words, t as usize, &st)?;
                        pc + 1
                    }
                    Flow::Push { t, d } => {
                        let d = d as usize;
                        let kept = std::mem::replace(&mut st.regs[d], Rv::Tagged);
                        self.join_into(&mut states, &mut work, words, t as usize, &st)?;
                        st.regs[d] = kept;
                        st.depth += 1;
                        pc + 1
                    }
                    Flow::Pop => {
                        st.depth -= 1;
                        pc + 1
                    }
                    Flow::Stop => break,
                };
                if next >= len {
                    return Err(self.reject(
                        pc,
                        Rule::FallOffEnd,
                        "execution can fall off the end of the function".to_string(),
                    ));
                }
                if leader[next] {
                    self.join_into(&mut states, &mut work, words, next, &st)?;
                    break;
                }
                pc = next;
            }
        }
        Ok(())
    }

    /// Joins `st` into the state of leader `pc` in place, queueing the
    /// leader when its state is new or grew, and counts the register words
    /// it touched into `words`.
    fn join_into(
        &self,
        states: &mut BTreeMap<usize, AbsState>,
        work: &mut BTreeSet<usize>,
        words: &mut usize,
        pc: usize,
        st: &AbsState,
    ) -> Result<(), Rejection> {
        *words += st.regs.len();
        let changed = match states.entry(pc) {
            Entry::Vacant(slot) => {
                slot.insert(st.clone());
                true
            }
            Entry::Occupied(mut slot) => {
                let old = slot.get_mut();
                if old.depth != st.depth {
                    return Err(self.reject(
                        pc,
                        Rule::HandlerJoinMismatch,
                        format!(
                            "paths join with handler depths {} and {}",
                            old.depth, st.depth
                        ),
                    ));
                }
                let mut changed = false;
                for (a, &b) in old.regs.iter_mut().zip(&st.regs) {
                    let j = a.join(b);
                    changed |= j != *a;
                    *a = j;
                }
                changed
            }
        };
        if changed {
            work.insert(pc);
        }
        Ok(())
    }

    /// Reads register `r`, rejecting a possibly-undefined value.
    fn use_(&self, st: &AbsState, pc: usize, r: Reg) -> Result<Rv, Rejection> {
        match st.regs[r as usize] {
            Rv::Uninit => Err(self.reject(
                pc,
                Rule::DefBeforeUse,
                format!("register r{r} may be read before any write"),
            )),
            v => Ok(v),
        }
    }

    /// Reads register `r` as something the machine will dereference (a
    /// memory base, call target, handler, or interned string): raw words
    /// are rejected — a fabricated address would reach the heap.
    fn deref(&self, st: &AbsState, pc: usize, r: Reg, what: &str) -> Result<Rv, Rejection> {
        match self.use_(st, pc, r)? {
            Rv::Raw => Err(self.reject(
                pc,
                Rule::RawMemBase,
                format!("{what} r{r} may hold a raw word, not a tagged value"),
            )),
            v => Ok(v),
        }
    }

    /// Writes `v` into register `d`, enforcing the root-map discipline:
    /// provably tagged values must not land in unscanned registers.  The
    /// reverse direction (raw into a scanned register) is allowed — see
    /// the module docs on trusted flows.
    fn def(&self, st: &mut AbsState, pc: usize, d: Reg, v: Rv) -> Result<(), Rejection> {
        let stored = if self.ptr(d) {
            v
        } else {
            if v.is_tagged() {
                return Err(self.reject(
                    pc,
                    Rule::TaggedIntoRaw,
                    format!(
                        "tagged value written to r{d}, which the GC root map \
                         marks unscanned"
                    ),
                ));
            }
            Rv::Raw
        };
        st.regs[d as usize] = stored;
        Ok(())
    }

    /// The kind a load/constant produces, as declared by the root map.
    fn map_kind(&self, d: Reg) -> Rv {
        if self.ptr(d) {
            Rv::Tagged
        } else {
            Rv::Raw
        }
    }

    fn need_role(&self, pc: usize, role: &str, what: &str) -> Result<RepId, Rejection> {
        self.registry.role(role).ok_or_else(|| {
            self.reject(
                pc,
                Rule::MissingRole,
                format!("{what} requires the `{role}` role"),
            )
        })
    }

    fn reg_imm_use(&self, st: &AbsState, pc: usize, v: &RegImm) -> Result<(), Rejection> {
        if let RegImm::Reg(r) = v {
            self.use_(st, pc, *r)?;
        }
        Ok(())
    }

    /// Abstractly executes one instruction, mutating `st` in place and
    /// returning how control leaves it.
    fn step(&self, pc: usize, inst: &Inst, st: &mut AbsState) -> Result<Flow, Rejection> {
        match inst {
            Inst::Const { d, .. } => {
                // `const-ptr` already ruled out pointer patterns in
                // scanned registers, so a tagged constant is an immediate.
                self.def(st, pc, *d, self.map_kind(*d))?;
            }
            Inst::Pool { d, idx } => {
                let v = match &self.program.pool[*idx as usize] {
                    PoolEntry::Datum(_) => Rv::Tagged,
                    // The structural check proved a pointer `rep-type`
                    // role for every pooled representation object.
                    PoolEntry::Rep(_) => match self.registry.role(roles::REP_TYPE) {
                        Some(rt) => Rv::Ptr {
                            tags: TagSet::singleton(rt),
                            fid: None,
                        },
                        None => Rv::Tagged,
                    },
                };
                self.def(st, pc, *d, v)?;
            }
            Inst::Move { d, s } => {
                let v = self.use_(st, pc, *s)?;
                self.def(st, pc, *d, v)?;
            }
            Inst::Bin { d, a, b, .. } => {
                self.use_(st, pc, *a)?;
                self.use_(st, pc, *b)?;
                self.def(st, pc, *d, Rv::Raw)?;
            }
            Inst::BinI { d, a, .. } => {
                self.use_(st, pc, *a)?;
                self.def(st, pc, *d, Rv::Raw)?;
            }
            Inst::LoadD { d, p, .. } => {
                self.deref(st, pc, *p, "load base")?;
                self.def(st, pc, *d, self.map_kind(*d))?;
            }
            Inst::LoadX { d, p, x, .. } => {
                self.deref(st, pc, *p, "load base")?;
                self.use_(st, pc, *x)?;
                self.def(st, pc, *d, self.map_kind(*d))?;
            }
            Inst::StoreD { p, s, .. } => {
                self.deref(st, pc, *p, "store base")?;
                self.use_(st, pc, *s)?;
            }
            Inst::StoreX { p, x, s, .. } => {
                self.deref(st, pc, *p, "store base")?;
                self.use_(st, pc, *x)?;
                self.use_(st, pc, *s)?;
            }
            Inst::AllocFill { d, len, fill, rep } => {
                self.reg_imm_use(st, pc, len)?;
                self.use_(st, pc, *fill)?;
                self.def(
                    st,
                    pc,
                    *d,
                    Rv::Ptr {
                        tags: TagSet::singleton(*rep),
                        fid: None,
                    },
                )?;
            }
            Inst::Jump { t } => return Ok(Flow::Jump(*t)),
            Inst::JumpCmp { a, b, t, .. } => {
                self.use_(st, pc, *a)?;
                self.reg_imm_use(st, pc, b)?;
                return Ok(Flow::Branch(*t));
            }
            Inst::GlobalGet { d, .. } => {
                self.def(st, pc, *d, Rv::Tagged)?;
            }
            Inst::GlobalSet { s, .. } => {
                self.use_(st, pc, *s)?;
            }
            Inst::MakeClosure { d, f, free } => {
                let target = &self.program.funs[*f as usize];
                for (i, r) in free.iter().enumerate() {
                    let v = self.use_(st, pc, *r)?;
                    let scanned = target.free_ptr_map.get(i).copied().unwrap_or(true);
                    if v.is_tagged() && !scanned {
                        return Err(self.reject(
                            pc,
                            Rule::TaggedIntoRawSlot,
                            format!(
                                "tagged value r{r} captured into free slot {i} of \
                                 `{}`, which its GC map marks unscanned",
                                target.name
                            ),
                        ));
                    }
                }
                let clo = self.need_role(pc, roles::CLOSURE, "closure creation")?;
                self.def(
                    st,
                    pc,
                    *d,
                    Rv::Ptr {
                        tags: TagSet::singleton(clo),
                        fid: Some(*f),
                    },
                )?;
            }
            Inst::ClosureSet { clo, idx, val } => {
                let target = self.deref(st, pc, *clo, "closure patch target")?;
                let v = self.use_(st, pc, *val)?;
                match target {
                    Rv::Ptr { fid: Some(f), .. } => {
                        let tf = &self.program.funs[f as usize];
                        if (*idx as usize) >= tf.free_count {
                            return Err(self.reject(
                                pc,
                                Rule::BadArgs,
                                format!(
                                    "patch of free slot {idx} but `{}` has {} slot(s)",
                                    tf.name, tf.free_count
                                ),
                            ));
                        }
                        let scanned = tf.free_ptr_map.get(*idx as usize).copied().unwrap_or(true);
                        if v.is_tagged() && !scanned {
                            return Err(self.reject(
                                pc,
                                Rule::TaggedIntoRawSlot,
                                format!(
                                    "tagged value r{val} patched into free slot \
                                     {idx} of `{}`, which its GC map marks unscanned",
                                    tf.name
                                ),
                            ));
                        }
                    }
                    _ => {
                        return Err(self.reject(
                            pc,
                            Rule::ClosureSetUnknown,
                            format!(
                                "r{clo} is not proven to be a closure of a known \
                                 function; the patch width cannot be checked"
                            ),
                        ));
                    }
                }
            }
            Inst::Call { d, f, args } => {
                self.deref(st, pc, *f, "call target")?;
                for a in args {
                    self.use_(st, pc, *a)?;
                }
                self.def(st, pc, *d, Rv::Tagged)?;
            }
            Inst::CallKnown { d, clo, args, .. } => {
                self.deref(st, pc, *clo, "closure operand")?;
                for a in args {
                    self.use_(st, pc, *a)?;
                }
                self.def(st, pc, *d, Rv::Tagged)?;
            }
            Inst::TailCall { f, args } => {
                self.deref(st, pc, *f, "call target")?;
                for a in args {
                    self.use_(st, pc, *a)?;
                }
                self.leak_check(st, pc)?;
                return Ok(Flow::Stop);
            }
            Inst::TailCallKnown { clo, args, .. } => {
                self.deref(st, pc, *clo, "closure operand")?;
                for a in args {
                    self.use_(st, pc, *a)?;
                }
                self.leak_check(st, pc)?;
                return Ok(Flow::Stop);
            }
            Inst::Ret { s } => {
                self.use_(st, pc, *s)?;
                self.leak_check(st, pc)?;
                return Ok(Flow::Stop);
            }
            Inst::Rep { op, d, args } => {
                self.need_role(pc, roles::REP_TYPE, "generic representation operations")?;
                if matches!(op, RepVmOp::MakeImm | RepVmOp::MakePtr | RepVmOp::Provide) {
                    // These read a symbol's name (and its backing string).
                    for role in [roles::SYMBOL, roles::STRING, roles::CHAR] {
                        self.need_role(pc, role, "representation construction")?;
                    }
                }
                // Which operands the machine dereferences (the rep-type
                // object, symbol names, and tag-checked subjects that may
                // be discriminated pointers).  Payload/index operands are
                // raw by design — `%rep-inject` exists to tag raw words.
                let deref_mask: &[bool] = match op {
                    RepVmOp::MakeImm => &[true, false, false, false],
                    RepVmOp::MakePtr => &[true, false, false],
                    RepVmOp::Provide | RepVmOp::Test | RepVmOp::Len => &[true, true],
                    RepVmOp::Inject | RepVmOp::Project => &[true, false],
                    RepVmOp::Alloc => &[true, false, false],
                    RepVmOp::Ref => &[true, true, false],
                    RepVmOp::Set => &[true, true, false, false],
                };
                for (a, &de) in args.iter().zip(deref_mask) {
                    if de {
                        self.deref(st, pc, *a, "representation operand")?;
                    } else {
                        self.use_(st, pc, *a)?;
                    }
                }
                let v = match op {
                    RepVmOp::Project | RepVmOp::Test | RepVmOp::Len => Rv::Raw,
                    _ => Rv::Tagged,
                };
                self.def(st, pc, *d, v)?;
            }
            Inst::Intern { d, s } => {
                for role in [roles::SYMBOL, roles::STRING, roles::CHAR] {
                    self.need_role(pc, role, "interning")?;
                }
                self.deref(st, pc, *s, "intern operand")?;
                self.def(st, pc, *d, Rv::Tagged)?;
            }
            Inst::WriteChar { s } => {
                self.need_role(pc, roles::CHAR, "character output")?;
                self.use_(st, pc, *s)?;
            }
            Inst::ErrorOp { s } | Inst::RaiseOp { s } => {
                // The payload becomes a GC root while the condition is
                // built, so a raw word here is a collector hazard.
                self.deref(st, pc, *s, "condition payload")?;
                return Ok(Flow::Stop);
            }
            Inst::PushHandler { h, d, t } => {
                self.deref(st, pc, *h, "trap handler")?;
                if !self.ptr(*d) {
                    return Err(self.reject(
                        pc,
                        Rule::TaggedIntoRaw,
                        format!(
                            "handler result register r{d} is marked unscanned \
                             but receives a tagged value"
                        ),
                    ));
                }
                return Ok(Flow::Push { t: *t, d: *d });
            }
            Inst::PopHandler => {
                if st.depth == 0 {
                    return Err(self.reject(
                        pc,
                        Rule::HandlerUnderflow,
                        "pop with no handler installed by this frame".to_string(),
                    ));
                }
                return Ok(Flow::Pop);
            }
            Inst::ResetCounters => {}
        }
        Ok(Flow::Fall)
    }

    fn leak_check(&self, st: &AbsState, pc: usize) -> Result<(), Rejection> {
        if st.depth != 0 {
            return Err(self.reject(
                pc,
                Rule::HandlerLeak,
                format!("frame exits with {} handler(s) still installed", st.depth),
            ));
        }
        Ok(())
    }
}

pub mod build {
    //! A small builder for hand-crafting raw [`Inst`] programs — the
    //! adversarial rejection corpus and verifier unit tests use it, so it
    //! lives in the library rather than a test module.

    use sxr_ir::rep::RepRegistry;
    use sxr_vm::{CodeFun, CodeProgram, Inst, PoolEntry};

    /// The classic tagging scheme the shipped prelude builds: fixnum in
    /// the low-zero pattern, 8-bit immediates for booleans/chars/null/
    /// unspecified, and the seven pointer tags.  Hand-built verifier tests
    /// use it so crafted programs exercise the same layout compiled code
    /// does.
    pub fn classic_registry() -> RepRegistry {
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
            reg.provide_role(role, id).unwrap();
        }
        reg
    }

    /// Accumulates functions and pool entries into a [`CodeProgram`] with
    /// function 0 as the entry point.
    #[derive(Debug)]
    pub struct ProgramBuilder {
        funs: Vec<CodeFun>,
        pool: Vec<PoolEntry>,
        nglobals: usize,
        registry: RepRegistry,
    }

    impl Default for ProgramBuilder {
        fn default() -> Self {
            ProgramBuilder::new()
        }
    }

    impl ProgramBuilder {
        /// A builder over [`classic_registry`] with no globals.
        pub fn new() -> ProgramBuilder {
            ProgramBuilder {
                funs: Vec::new(),
                pool: Vec::new(),
                nglobals: 0,
                registry: classic_registry(),
            }
        }

        /// Replaces the registry (for crafting missing-role programs).
        pub fn registry(mut self, registry: RepRegistry) -> Self {
            self.registry = registry;
            self
        }

        /// Sets the number of global slots.
        pub fn globals(mut self, n: usize) -> Self {
            self.nglobals = n;
            self
        }

        /// Appends a constant-pool entry.
        pub fn pool(mut self, entry: PoolEntry) -> Self {
            self.pool.push(entry);
            self
        }

        /// Appends a non-variadic function with every register GC-scanned.
        pub fn fun(self, name: &str, arity: usize, nregs: usize, insts: Vec<Inst>) -> Self {
            self.fun_raw(CodeFun {
                name: name.into(),
                arity,
                variadic: false,
                nregs,
                free_count: 0,
                insts,
                ptr_map: vec![true; nregs],
                free_ptr_map: vec![],
            })
        }

        /// Appends a fully specified function (raw registers, free slots,
        /// variadic entry).
        pub fn fun_raw(mut self, fun: CodeFun) -> Self {
            self.funs.push(fun);
            self
        }

        /// The finished program; function 0 is `main`.
        pub fn build(self) -> CodeProgram {
            let nglobals = self.nglobals;
            CodeProgram {
                funs: self.funs,
                main: 0,
                pool: self.pool,
                nglobals,
                global_names: (0..nglobals).map(|i| format!("g{i}")).collect(),
                registry: self.registry,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::build::ProgramBuilder;
    use super::*;
    use sxr_vm::BinOp;

    #[test]
    fn straight_line_program_verifies() {
        let prog = ProgramBuilder::new()
            .fun(
                "main",
                0,
                3,
                vec![
                    Inst::Const { d: 1, imm: 8 }, // fixnum 1
                    Inst::Bin {
                        op: BinOp::Add,
                        d: 2,
                        a: 1,
                        b: 1,
                    },
                    Inst::Ret { s: 2 },
                ],
            )
            .build();
        let report = verify_program(&prog);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.funs, 1);
        assert_eq!(report.insts, 3);
        assert_eq!(report.steps, 3);
        assert_eq!(report.state_words, 3, "one state, cloned once");
        assert!(verifier_hook(&prog).is_ok());
    }

    #[test]
    fn loops_reach_a_fixpoint() {
        // r1 counts down; the loop merges two paths with identical state.
        let prog = ProgramBuilder::new()
            .fun(
                "main",
                0,
                2,
                vec![
                    Inst::Const { d: 1, imm: 80 },
                    Inst::JumpCmp {
                        op: sxr_vm::CmpOp::Eq,
                        a: 1,
                        b: RegImm::Imm(0),
                        t: 4,
                    },
                    Inst::BinI {
                        op: BinOp::Sub,
                        d: 1,
                        a: 1,
                        imm: 8,
                    },
                    Inst::Jump { t: 1 },
                    Inst::Ret { s: 1 },
                ],
            )
            .build();
        let report = verify_program(&prog);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn unreachable_tail_is_not_typed() {
        // Dead code after a raise may violate dataflow rules (here: a read
        // of an undefined register) without failing verification; only
        // structural bounds apply to it.
        let prog = ProgramBuilder::new()
            .fun(
                "main",
                0,
                3,
                vec![
                    Inst::Const { d: 1, imm: 8 },
                    Inst::ErrorOp { s: 1 },
                    Inst::Ret { s: 2 }, // r2 never written; unreachable
                ],
            )
            .build();
        let report = verify_program(&prog);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn hook_reports_first_rejection() {
        let prog = ProgramBuilder::new()
            .fun("main", 0, 2, vec![Inst::Ret { s: 1 }])
            .build();
        let err = verifier_hook(&prog).unwrap_err();
        assert_eq!(err.kind.label(), "rejected-by-verifier");
        assert!(err.message.contains("[def-before-use]"), "{}", err.message);
    }
    // ----- the leader-only walk: one test per join shape -----

    use sxr_vm::CmpOp;

    fn main_only(nregs: usize, insts: Vec<Inst>) -> VerifyReport {
        verify_program(&ProgramBuilder::new().fun("main", 0, nregs, insts).build())
    }

    fn addr(report: &VerifyReport) -> (u32, u32, Rule) {
        let r = report.first().expect("rejected");
        (r.fun, r.pc, r.rule)
    }

    fn branch(op: CmpOp, a: Reg, t: u32) -> Inst {
        Inst::JumpCmp {
            op,
            a,
            b: RegImm::Imm(0),
            t,
        }
    }

    #[test]
    fn jump_target_also_reached_by_fall_through() {
        // pc 3 is a branch target and the fall-through of pc 2; only the
        // fall-through path defines r2.
        let report = main_only(
            3,
            vec![
                Inst::Const { d: 1, imm: 8 },
                branch(CmpOp::Eq, 1, 3),
                Inst::Const { d: 2, imm: 16 },
                Inst::Ret { s: 2 },
            ],
        );
        assert_eq!(addr(&report), (0, 3, Rule::DefBeforeUse), "{report}");

        // Reading r1, defined on both paths, is fine.
        let report = main_only(
            3,
            vec![
                Inst::Const { d: 1, imm: 8 },
                branch(CmpOp::Eq, 1, 3),
                Inst::Const { d: 2, imm: 16 },
                Inst::Ret { s: 1 },
            ],
        );
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.steps, 4, "the join leader is stepped once");
    }

    #[test]
    fn loop_back_edge_exposes_def_before_use() {
        // The loop header (pc 3) is first reached with r2 defined; the
        // branch at pc 1 enters the body (pc 4) without it, and only the
        // back edge at pc 5 carries that into the header.
        let report = main_only(
            4,
            vec![
                Inst::Const { d: 1, imm: 80 },
                branch(CmpOp::Eq, 1, 4),
                Inst::Const { d: 2, imm: 8 },
                Inst::Move { d: 3, s: 2 },
                Inst::BinI {
                    op: BinOp::Sub,
                    d: 1,
                    a: 1,
                    imm: 8,
                },
                branch(CmpOp::Ne, 1, 3),
                Inst::Ret { s: 1 },
            ],
        );
        assert_eq!(addr(&report), (0, 3, Rule::DefBeforeUse), "{report}");
    }

    #[test]
    fn handler_resume_defines_its_register_only_on_the_trap_edge() {
        let push = Inst::PushHandler { h: 1, d: 2, t: 5 };
        // The resume target reads r2, which only the trap edge defines.
        let report = main_only(
            4,
            vec![
                Inst::Const { d: 1, imm: 8 },
                push.clone(),
                Inst::Const { d: 3, imm: 16 },
                Inst::PopHandler,
                Inst::Ret { s: 3 },
                Inst::Ret { s: 2 },
            ],
        );
        assert!(report.is_clean(), "{report}");

        // The fall-through path does not see the trap edge's definition.
        let report = main_only(
            4,
            vec![
                Inst::Const { d: 1, imm: 8 },
                push,
                Inst::Const { d: 3, imm: 16 },
                Inst::PopHandler,
                Inst::Ret { s: 2 },
                Inst::Ret { s: 2 },
            ],
        );
        assert_eq!(addr(&report), (0, 4, Rule::DefBeforeUse), "{report}");

        // Falling through into the resume target joins r2 back to Uninit.
        let report = main_only(
            4,
            vec![
                Inst::Const { d: 1, imm: 8 },
                Inst::PushHandler { h: 1, d: 2, t: 4 },
                Inst::Const { d: 3, imm: 16 },
                Inst::PopHandler,
                Inst::Ret { s: 2 },
            ],
        );
        assert_eq!(addr(&report), (0, 4, Rule::DefBeforeUse), "{report}");
    }

    #[test]
    fn branch_to_its_own_fall_through() {
        // Both edges of pc 1 reach pc 2 with the same state.
        let report = main_only(
            3,
            vec![
                Inst::Const { d: 1, imm: 8 },
                branch(CmpOp::Eq, 1, 2),
                Inst::Ret { s: 1 },
            ],
        );
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.steps, 3);
        // Two walks (from pc 0 and pc 2) and two joins into pc 2.
        assert_eq!(report.state_words, 4 * 3);

        let report = main_only(
            3,
            vec![
                Inst::Const { d: 1, imm: 8 },
                branch(CmpOp::Eq, 1, 2),
                Inst::Ret { s: 2 },
            ],
        );
        assert_eq!(addr(&report), (0, 2, Rule::DefBeforeUse), "{report}");
    }

    #[test]
    fn handler_depth_mismatch_at_a_fall_through_leader() {
        // pc 3 is reached at depth 0 by the branch and at depth 1 by the
        // fall-through of the push.
        let report = main_only(
            3,
            vec![
                Inst::Const { d: 1, imm: 8 },
                branch(CmpOp::Eq, 1, 3),
                Inst::PushHandler { h: 1, d: 2, t: 4 },
                Inst::PopHandler,
                Inst::Ret { s: 1 },
            ],
        );
        assert_eq!(addr(&report), (0, 3, Rule::HandlerJoinMismatch), "{report}");
    }
}
