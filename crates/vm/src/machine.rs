//! The interpreter: loads a [`CodeProgram`], runs it, counts everything.
//!
//! The execution hot path is allocation-free: the loop executes the same
//! [`Inst`] stream that the structural check and the verifier saw,
//! borrowing each instruction from the loaded program; every frame's
//! registers are a window of one contiguous register stack, and the
//! instruction budget is charged before an instruction runs so budgets and
//! counters always agree.
//!
//! There is one step loop and every access in it is bounds-checked.
//! The load-time structural check ([`check_structure`]) proves every
//! register, pool, global, and function index and every jump target of a
//! loadable program in range, so those checks never fail; the instruction
//! fetch is the one check left with real work (a function's last
//! instruction can fall through past its end).

use crate::counters::Counters;
use crate::encode;
use crate::error::{OomPhase, VmError, VmErrorKind};
use crate::fault::{ChaosRng, FaultPlan};
use crate::heap::{grow_target, header_len, header_type, ClosureScan, Heap, Word};
use crate::inst::{BinOp, CmpOp, CodeProgram, Inst, PoolEntry, Reg, RegImm, RepVmOp};
use crate::structure::check_structure;
use std::collections::HashMap;
use std::rc::Rc;
use sxr_ir::rep::{roles, ImmediateRole, PointerRole, RepId, RepKind, RepRegistry};

/// A load-time bytecode verifier: inspects the whole program and either
/// admits it (`Ok`) or rejects it with a structured
/// [`VmErrorKind::RejectedByVerifier`] error.  The verdict only decides
/// whether the program loads; an admitted program runs on the same checked
/// step loop as one loaded without a verifier.  A plain function pointer so
/// [`MachineConfig`] stays `Copy`-friendly and the VM crate needs no
/// dependency on the analysis crate that implements the standard verifier.
pub type VerifierHook = fn(&CodeProgram) -> Result<(), VmError>;

/// Tuning knobs for a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Initial heap size in words (grows on demand, up to any cap the
    /// fault plan imposes).
    pub heap_words: usize,
    /// Abort with [`VmErrorKind::Timeout`] after this many instructions.
    pub instruction_limit: Option<u64>,
    /// Deterministic fault-injection schedule (defaults to none).
    pub fault: FaultPlan,
    /// Load-time admission gate.  When set, [`Machine::new`] runs it once
    /// and refuses to load a program it rejects.  It does not change how
    /// an admitted program runs: every machine executes on the same
    /// bounds-checked loop, which tolerates any structurally sound input.
    /// `None` (the default) admits every structurally sound program.
    pub verifier: Option<VerifierHook>,
    /// The frame-depth limit: a call made while the stack already holds
    /// this many frames (`main`'s included) raises
    /// [`VmErrorKind::StackOverflow`], and so does one whose frame or
    /// registers the host refuses to back.
    pub max_depth: usize,
}

/// The default [`MachineConfig::max_depth`].
pub const DEFAULT_MAX_DEPTH: usize = 1_000_000;

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            heap_words: 1 << 20,
            instruction_limit: None,
            fault: FaultPlan::default(),
            verifier: None,
            max_depth: DEFAULT_MAX_DEPTH,
        }
    }
}

/// One activation.  Its registers are the window `base..base + nregs` of
/// the machine's register stack, `nregs` being the function's frame size.
#[derive(Debug)]
struct Frame {
    fnid: u32,
    pc: usize,
    base: usize,
    ret_dst: Reg,
}

/// One installed trap handler (a `PushHandler` whose `PopHandler` has not
/// yet run).  `depth` is `frames.len()` at install time: delivery unwinds
/// the frame stack back to exactly that depth, so the frame that installed
/// the handler is on top when the handler is called.
#[derive(Debug)]
struct Handler {
    depth: usize,
    handler: Word,
    dst: Reg,
    t: u32,
}

/// Carries the guest value behind an in-flight trap between the raising
/// instruction and delivery (cleared on every delivery attempt).
#[derive(Debug, Clone, Copy)]
enum PendingTrap {
    /// `%raise v`: deliver `v` itself, unwrapped (identity-preserving
    /// re-raise).
    Reraise(Word),
    /// `%error v`: deliver a fresh condition whose payload is `v`.
    Payload(Word),
}

/// Why a [`Machine::start`]/[`Machine::resume`] session paused without
/// finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendReason {
    /// The instruction budget reached zero.  No instruction was lost: the
    /// next [`Machine::resume`] re-fetches the instruction the budget
    /// refused.
    FuelExhausted,
}

/// What one slice of resumable execution produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The program ran to completion with this result word.
    Done(Word),
    /// Execution paused; all machine state is intact and
    /// [`Machine::resume`] continues exactly where the slice stopped.
    Suspended(SuspendReason),
}

/// The machine's session lifecycle.  `run`/`start` are only valid in
/// `Ready`, `resume` only in `Running`; everything else is a deterministic
/// `BadProgram` error rather than unspecified behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Ready,
    Running,
    Done,
    Faulted,
}

/// The role facts the step loop reads, resolved once so that no
/// instruction looks a role up by name.  The boot roles are checked at
/// load.  The optional ones are `None` until the library provides them:
/// at load, or at run time by the `%provide-rep!` that first provides the
/// role.  A filled entry never goes stale, because `provide_role` refuses
/// to rebind a role and the machine's registry changes only through the
/// representation instructions.
#[derive(Debug, Clone, Copy)]
struct RoleCache {
    fixnum: ImmediateRole,
    closure: PointerRole,
    false_word: Word,
    unspec_word: Word,
    reg_init: Word,
    rep_type: Option<PointerRole>,
    char: Option<ImmediateRole>,
    string: Option<PointerRole>,
    symbol: Option<PointerRole>,
    pair: Option<PointerRole>,
    null_word: Option<Word>,
}

impl RoleCache {
    /// Resolves every role `registry` provides.  The boot roles must be
    /// there ([`check_structure`] refuses a program without them).
    fn new(registry: &RepRegistry) -> RoleCache {
        let boot = "boot role checked at load";
        let mut cache = RoleCache {
            fixnum: registry.immediate_role(roles::FIXNUM).expect(boot),
            closure: registry.pointer_role(roles::CLOSURE).expect(boot),
            false_word: registry.role_word(roles::BOOLEAN, 0).expect(boot),
            unspec_word: registry.role_word(roles::UNSPECIFIED, 0).expect(boot),
            reg_init: registry.role_word(roles::FIXNUM, 0).expect(boot),
            rep_type: None,
            char: None,
            string: None,
            symbol: None,
            pair: None,
            null_word: None,
        };
        cache.fill(registry);
        cache
    }

    /// Fills the optional roles `registry` now provides.
    fn fill(&mut self, registry: &RepRegistry) {
        self.rep_type = registry.pointer_role(roles::REP_TYPE);
        self.char = registry.immediate_role(roles::CHAR);
        self.string = registry.pointer_role(roles::STRING);
        self.symbol = registry.pointer_role(roles::SYMBOL);
        self.pair = registry.pointer_role(roles::PAIR);
        self.null_word = registry.role_word(roles::NULL, 0);
    }
}

/// A loaded program plus all mutable run-time state.
///
/// # Example
///
/// See the crate-level documentation; machines are normally produced by the
/// `sxr` pipeline rather than built by hand.
#[derive(Debug)]
pub struct Machine {
    program: Rc<CodeProgram>,
    /// The run-time representation registry (starts as the compile-time
    /// registry; extended by run-time `%make-*-type` and `%provide-rep!`,
    /// which keep [`RoleCache`] in step with it).
    pub(crate) registry: RepRegistry,
    heap: Heap,
    globals: Vec<Word>,
    pool: Vec<Word>,
    interned: HashMap<String, Word>,
    frames: Vec<Frame>,
    /// The register stack: the frames' register windows, contiguous and in
    /// call order.  It always ends where the top frame's window ends.
    regs: Vec<Word>,
    /// The top frame's `base`, cached for register access.
    top_base: usize,
    /// Dynamic execution counters.
    pub counters: Counters,
    output: String,
    ptr_table: [bool; 8],
    remaining: Option<u64>,
    /// The frame-depth limit ([`MachineConfig::max_depth`]).
    max_depth: usize,
    role: RoleCache,
    /// The fault-injection schedule in force for this machine.
    fault: FaultPlan,
    /// Hard heap capacity ceiling in words (`usize::MAX` when uncapped).
    heap_cap: usize,
    /// True when the plan perturbs GC timing (fast-path gate so fault-free
    /// runs pay one boolean test per safe point).
    chaos_gc: bool,
    /// Jittered-schedule PRNG state, when seeded.
    jitter: Option<ChaosRng>,
    /// Total object allocations performed since load (never reset; the
    /// ordinal stream `fail_alloc_at` indexes into).
    alloc_seq: u64,
    /// Installed trap handlers, innermost last.  Handler closures are GC
    /// roots (traced in [`Machine::collect`]).
    handlers: Vec<Handler>,
    /// Extra GC roots for guest words a trap is carrying while the
    /// condition object is under construction (empty outside delivery).
    trap_roots: Vec<Word>,
    /// The guest value behind an in-flight `%raise`/`%error`, if any.
    pending_trap: Option<PendingTrap>,
    /// Session lifecycle (pins `run`-after-`Err` to a deterministic error).
    phase: Phase,
    /// The result word once the outermost frame returns.
    result: Word,
}

impl Machine {
    /// Loads `program`: checks its structure, runs the configured verifier
    /// and builds the constant pool on the heap.
    ///
    /// # Errors
    ///
    /// Returns [`VmErrorKind::BadProgram`] for the first problem
    /// [`check_structure`] finds, and whatever the configured verifier
    /// rejects.
    pub fn new(program: CodeProgram, config: MachineConfig) -> Result<Machine, VmError> {
        if let Some(m) = check_structure(&program).into_iter().next() {
            return Err(VmError::new(VmErrorKind::BadProgram, m.to_string()));
        }
        let registry = program.registry.clone();
        let role = RoleCache::new(&registry);
        // The verifier sees the program the step loop executes; a rejected
        // program never starts.
        if let Some(verify) = config.verifier {
            verify(&program)?;
        }
        let ptr_table = registry.pointer_pattern_table();
        let nglobals = program.nglobals;
        let heap_cap = config.fault.effective_cap();
        let chaos_gc = config.fault.perturbs_gc();
        let jitter = config.fault.gc_jitter_seed.map(ChaosRng::new);
        let mut m = Machine {
            program: Rc::new(program),
            registry,
            heap: Heap::new(config.heap_words.min(heap_cap)),
            globals: vec![role.unspec_word; nglobals],
            pool: Vec::new(),
            interned: HashMap::new(),
            frames: Vec::new(),
            regs: Vec::new(),
            top_base: 0,
            counters: Counters::default(),
            output: String::new(),
            ptr_table,
            remaining: config.instruction_limit,
            max_depth: config.max_depth,
            role,
            fault: config.fault,
            heap_cap,
            chaos_gc,
            jitter,
            alloc_seq: 0,
            handlers: Vec::new(),
            trap_roots: Vec::new(),
            pending_trap: None,
            phase: Phase::Ready,
            result: role.unspec_word,
        };
        m.build_pool()?;
        Ok(m)
    }

    fn build_pool(&mut self) -> Result<(), VmError> {
        let prog = self.program.clone();
        // Pre-reserve so pool construction never triggers GC (intermediate
        // children would not be roots).
        let mut need = 0usize;
        for e in &prog.pool {
            need += match e {
                PoolEntry::Datum(d) => encode::words_needed(d),
                PoolEntry::Rep(_) => 2,
            };
        }
        if self.heap.needs_gc(need) {
            let target = grow_target(self.heap.used(), need, self.heap.capacity());
            // A refused growth leaves the heap as it was.
            let _ = self.heap.grow_to(target.min(self.heap_cap));
            if self.heap.needs_gc(need) {
                // Nothing on the heap is garbage at load time, so a heap
                // that cannot hold the pool is simply too small.
                return Err(VmError::oom(need, self.heap.capacity(), OomPhase::Alloc));
            }
        }
        for e in &prog.pool {
            let w = match e {
                PoolEntry::Datum(d) => encode::encode_datum(self, d)?,
                PoolEntry::Rep(rid) => self.make_rep_object(*rid)?,
            };
            self.pool.push(w);
        }
        Ok(())
    }

    /// The run-time representation registry: the compile-time registry
    /// plus whatever the program's `%make-*-type` and `%provide-rep!` added.
    pub fn registry(&self) -> &RepRegistry {
        &self.registry
    }

    /// The accumulated `%write-char` output.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Clears the output port.
    pub fn clear_output(&mut self) {
        self.output.clear();
    }

    /// Formats a tagged word using the library's registered representations.
    pub fn describe(&self, w: Word) -> String {
        encode::describe(self, w, 64)
    }

    pub(crate) fn heap_ref(&self) -> &Heap {
        &self.heap
    }

    /// Words of heap currently in use.
    pub fn heap_used(&self) -> usize {
        self.heap.used()
    }

    /// Current heap capacity in words (observing the growth policy).
    pub fn heap_capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Heap store used by the constant encoder on freshly allocated objects.
    pub(crate) fn heap_set_for_encode(&mut self, idx: usize, w: Word) -> Result<(), VmError> {
        self.heap.set(idx, w)
    }

    pub(crate) fn role_fixnum(&self) -> RepId {
        self.role.fixnum.id
    }

    /// Allocates, collecting or growing first if needed. `fill` must be a
    /// valid tagged word.
    ///
    /// Fault-injected collections never fire here: this is *inside* an
    /// allocation, where callers may hold derived words (an encoded child,
    /// a frame under construction) that are not yet GC roots.  Chaos
    /// schedules perturb only the designated safe points
    /// ([`Machine::ensure_space`]).
    ///
    /// # Errors
    ///
    /// Propagates collection failures (heap corruption surfaced by the
    /// checked forwarder), and raises [`VmErrorKind::OutOfMemory`] when the
    /// request cannot be satisfied under the fault plan's capacity cap or
    /// the plan fails this allocation by schedule.
    pub(crate) fn alloc_object(
        &mut self,
        len: usize,
        type_id: u16,
        tag: u64,
        fill: Word,
    ) -> Result<Word, VmError> {
        self.alloc_seq += 1;
        if self.fault.fail_alloc_at == Some(self.alloc_seq) {
            return Err(VmError::oom(len + 1, self.heap.capacity(), OomPhase::Alloc));
        }
        self.ensure_space_quiet(len + 1)?;
        self.counters.allocated_words += len as u64 + 1;
        self.counters.allocated_objects += 1;
        let idx = self.heap.alloc(len, type_id, fill);
        Ok(((idx as i64) << 3) | tag as i64)
    }

    /// A GC-safe point reserving `words` of heap.  Every register, global,
    /// pool slot, and interned symbol is a root here, so the fault plan is
    /// free to force a collection; afterwards the normal reservation logic
    /// runs.  Once this returns, allocations totalling `words` are
    /// guaranteed not to collect (callers rely on that to keep not-yet-
    /// rooted intermediate values alive across multi-object builds).
    fn ensure_space(&mut self, words: usize) -> Result<(), VmError> {
        if self.chaos_gc {
            let force =
                self.fault.gc_every_alloc || self.jitter.as_mut().is_some_and(ChaosRng::force_gc);
            if force {
                self.counters.gc_forced += 1;
                self.collect()?;
            }
        }
        self.ensure_space_quiet(words)
    }

    /// The reservation logic alone, with no fault hooks: collect when the
    /// request does not fit, grow when the collection left the heap tight.
    fn ensure_space_quiet(&mut self, words: usize) -> Result<(), VmError> {
        if !self.heap.needs_gc(words.saturating_sub(1)) {
            return Ok(());
        }
        self.collect()?;
        // Grow when the collection left the heap tight: either the request
        // still does not fit, or live data holds more than half of capacity
        // (so the next collection would come almost immediately).  The
        // target is strictly larger than the current capacity — see
        // [`grow_target`] — which keeps the decision monotone and
        // thrash-free under high live-data residency.  A capacity cap
        // clamps the target, and the host may refuse the memory (leaving
        // the heap as it was); a request the heap then cannot satisfy is a
        // structured out-of-memory error, never a panic or an abort.
        let mut refused = false;
        if self.heap.needs_gc(words.saturating_sub(1))
            || self.heap.used() * 2 > self.heap.capacity()
        {
            let target = grow_target(self.heap.used(), words, self.heap.capacity());
            refused = self.heap.grow_to(target.min(self.heap_cap)).is_err();
        }
        if self.heap.needs_gc(words.saturating_sub(1)) {
            let phase = if refused || words > self.heap_cap {
                OomPhase::Alloc // the memory is not to be had
            } else {
                OomPhase::Collect // collection reclaimed too little
            };
            return Err(VmError::oom(words, self.heap.capacity(), phase));
        }
        Ok(())
    }

    /// Runs a full two-space collection.
    ///
    /// # Errors
    ///
    /// Returns [`VmErrorKind::BadMemoryAccess`] when the forwarder detects
    /// heap corruption (out-of-range pointers, to-space overflow) instead
    /// of silently mis-forwarding in release builds.
    pub fn collect(&mut self) -> Result<(), VmError> {
        let cap = self.heap.capacity();
        let mut from = self
            .heap
            .begin_gc(cap)
            .map_err(|_| VmError::oom(cap, cap, OomPhase::Alloc))?;
        self.counters.gc_count += 1;
        let pt = self.ptr_table;
        for w in self.globals.iter_mut() {
            *w = self.heap.forward(&mut from, *w, &pt)?;
        }
        for w in self.pool.iter_mut() {
            *w = self.heap.forward(&mut from, *w, &pt)?;
        }
        let prog = self.program.clone();
        for f in &self.frames {
            let fun = &prog.funs[f.fnid as usize];
            let window = &mut self.regs[f.base..f.base + fun.nregs];
            for (r, w) in window.iter_mut().enumerate() {
                if fun.ptr_map.get(r).copied().unwrap_or(true) {
                    *w = self.heap.forward(&mut from, *w, &pt)?;
                }
            }
        }
        for w in self.interned.values_mut() {
            *w = self.heap.forward(&mut from, *w, &pt)?;
        }
        for h in self.handlers.iter_mut() {
            h.handler = self.heap.forward(&mut from, h.handler, &pt)?;
        }
        for w in self.trap_roots.iter_mut() {
            *w = self.heap.forward(&mut from, *w, &pt)?;
        }
        self.result = self.heap.forward(&mut from, self.result, &pt)?;
        // Closures are mixed-representation objects: free slots the code
        // generator proved raw must not be treated as pointers.
        let cs = ClosureScan {
            type_id: self.role.closure.id as u16,
            code_shift: self.role.fixnum.shift,
            funs: &prog.funs,
        };
        self.heap.scan_from_precise(0, &mut from, &pt, Some(&cs))?;
        self.heap.end_gc(from);
        self.counters.gc_copied_words += self.heap.used() as u64;
        Ok(())
    }

    /// Total object allocations performed since load, pool construction
    /// included.  Unlike [`Counters::allocated_objects`] this is never
    /// reset, so it is the ordinal stream that
    /// [`FaultPlan::fail_alloc_at`] indexes into — chaos harnesses use it
    /// to derive schedules from a fault-free run.
    pub fn allocations(&self) -> u64 {
        self.alloc_seq
    }

    /// The fault plan this machine runs under.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Reads register `reg` of the top frame.
    #[inline(always)]
    fn r(&self, reg: Reg) -> Word {
        self.regs[self.top_base + reg as usize]
    }

    #[inline(always)]
    fn set_r(&mut self, reg: Reg, w: Word) {
        self.regs[self.top_base + reg as usize] = w;
    }

    /// Pushes a window of `nregs` registers onto the register stack and
    /// returns its base.  Every register starts as the library's
    /// register-init word, so nothing bleeds through from a frame that
    /// used the same words before.
    ///
    /// # Errors
    ///
    /// [`VmErrorKind::StackOverflow`] when the host refuses the memory; the
    /// stack is then unchanged.
    fn push_window(&mut self, nregs: usize) -> Result<usize, VmError> {
        let base = self.regs.len();
        if self.regs.try_reserve(nregs).is_err() {
            return Err(VmError::new(
                VmErrorKind::StackOverflow,
                format!("stack overflow: the register stack cannot grow past {base} words"),
            ));
        }
        self.regs.resize(base + nregs, self.role.reg_init);
        Ok(base)
    }

    /// Makes `frame` the top frame.  Its window must end the register
    /// stack.
    fn push_frame(&mut self, frame: Frame) {
        self.top_base = frame.base;
        self.frames.push(frame);
    }

    /// Pops frames down to `depth` and truncates the register stack to the
    /// new top frame's window.
    fn unwind_to(&mut self, depth: usize) {
        self.frames.truncate(depth);
        let top = self.frames.last().expect("frame");
        self.top_base = top.base;
        self.regs
            .truncate(top.base + self.program.funs[top.fnid as usize].nregs);
    }

    /// Builds the entry frame for `main`.
    fn main_frame(&mut self) -> Result<Frame, VmError> {
        let fnid = self.program.main;
        let fun = &self.program.funs[fnid as usize];
        if fun.arity != 0 {
            return Err(VmError::new(
                VmErrorKind::ArityMismatch,
                format!("`{}` takes {} arguments, got 0", fun.name, fun.arity),
            ));
        }
        let nregs = fun.nregs;
        let base = self.push_window(nregs)?;
        self.regs[base] = self.role.unspec_word;
        Ok(Frame {
            fnid,
            pc: 0,
            base,
            ret_dst: 0,
        })
    }

    fn arity_error(&self, fnid: u32, at_least: bool, got: usize) -> VmError {
        let fun = &self.program.funs[fnid as usize];
        VmError::new(
            VmErrorKind::ArityMismatch,
            format!(
                "`{}` takes {}{} arguments, got {}",
                fun.name,
                if at_least { "at least " } else { "" },
                fun.arity,
                got
            ),
        )
    }

    /// Builds a callee frame reading the closure and arguments from the
    /// *current* frame's registers.  The callee's window is pushed above
    /// the caller's only once nothing can fail, so an error leaves the
    /// register stack as it was.
    fn build_frame(
        &mut self,
        fnid: u32,
        clo_reg: Reg,
        args: &[Reg],
        ret_dst: Reg,
    ) -> Result<Frame, VmError> {
        let fun = &self.program.funs[fnid as usize];
        let (arity, variadic, nregs) = (fun.arity, fun.variadic, fun.nregs);
        let nargs = args.len();
        let rest = if variadic {
            if nargs < arity {
                return Err(self.arity_error(fnid, true, nargs));
            }
            Some(self.rest_list(args, arity)?)
        } else {
            if arity != nargs {
                return Err(self.arity_error(fnid, false, nargs));
            }
            None
        };
        let base = self.push_window(nregs)?;
        self.regs[base] = self.r(clo_reg);
        for (i, &a) in args[..arity].iter().enumerate() {
            self.regs[base + 1 + i] = self.r(a);
        }
        if let Some(rest) = rest {
            self.regs[base + 1 + arity] = rest;
        }
        Ok(Frame {
            fnid,
            pc: 0,
            base,
            ret_dst,
        })
    }

    /// Collects the arguments after the first `arity` into a library list
    /// for a variadic callee.  Space for the pairs is reserved before any
    /// register is read, so a collection here cannot leave stale copies
    /// behind, and none can run before the caller stores the list.
    fn rest_list(&mut self, args: &[Reg], arity: usize) -> Result<Word, VmError> {
        // The load-time structural check proved both roles for every
        // variadic function, and a role is never rebound.
        let checked = "variadic role checked at load";
        let pair = self.role.pair.expect(checked);
        let mut rest = self.role.null_word.expect(checked);
        self.ensure_space(3 * (args.len() - arity) + 1)?;
        for &a in args[arity..].iter().rev() {
            let car = self.r(a);
            let p = self.alloc_object(2, pair.id as u16, pair.tag, rest)?;
            let base = (p >> 3) as usize;
            self.heap.set(base + 1, car)?;
            rest = p;
        }
        Ok(rest)
    }

    /// Calls `fnid` in a new frame above the top one.
    ///
    /// # Errors
    ///
    /// As [`Machine::reserve_frame`] and [`Machine::build_frame`].
    fn call(&mut self, fnid: u32, clo_reg: Reg, args: &[Reg], ret_dst: Reg) -> Result<(), VmError> {
        self.reserve_frame()?;
        let frame = self.build_frame(fnid, clo_reg, args, ret_dst)?;
        self.push_frame(frame);
        Ok(())
    }

    /// Makes room for one more frame.
    ///
    /// # Errors
    ///
    /// [`VmErrorKind::StackOverflow`] when the stack already holds
    /// [`MachineConfig::max_depth`] frames or the host refuses the memory.
    fn reserve_frame(&mut self) -> Result<(), VmError> {
        let depth = self.frames.len();
        let detail = if depth >= self.max_depth {
            format!("a call would nest deeper than {} frames", self.max_depth)
        } else if self.frames.try_reserve(1).is_err() {
            format!("the frame stack cannot grow past {depth} frames")
        } else {
            return Ok(());
        };
        Err(VmError::new(
            VmErrorKind::StackOverflow,
            format!("stack overflow: {detail}"),
        ))
    }

    /// Replaces the top frame with a call of `fnid`, keeping its return
    /// destination.  The callee's window is built above the caller's and
    /// then copied down over it.
    fn tail_call(&mut self, fnid: u32, clo_reg: Reg, args: &[Reg]) -> Result<(), VmError> {
        let ret_dst = self.frames.last().expect("frame").ret_dst;
        let callee = self.build_frame(fnid, clo_reg, args, ret_dst)?;
        let nregs = self.regs.len() - callee.base;
        self.regs.copy_within(callee.base.., self.top_base);
        self.regs.truncate(self.top_base + nregs);
        *self.frames.last_mut().expect("frame") = Frame {
            base: self.top_base,
            ..callee
        };
        Ok(())
    }

    fn closure_target(&self, fval: Word) -> Result<u32, VmError> {
        if !self.role.closure.matches(fval) {
            return Err(self.not_a_procedure(fval));
        }
        // A closure-tagged word need not point into the heap: `%rep-inject`
        // can forge one. Such a word is not a procedure either.
        let code = match self.heap.get(field_index(fval, 1)) {
            Ok(code) => code,
            Err(_) => return Err(self.not_a_procedure(fval)),
        };
        let fnid = self.role.fixnum.decode(code) as u32;
        // The code word lives on the heap, where a sufficiently adversarial
        // guest (a `%rep-set!` through a representation sharing the closure
        // tag) can overwrite it; such an object is simply not a callable
        // procedure, and saying so keeps the error recoverable — important
        // for the verifier's contract that verified programs never reach
        // `BadProgram` at run time.
        if (fnid as usize) >= self.program.funs.len() {
            return Err(VmError::new(
                VmErrorKind::NotAProcedure,
                format!("closure code word {fnid} is not a function id"),
            ));
        }
        Ok(fnid)
    }

    #[cold]
    fn not_a_procedure(&self, fval: Word) -> VmError {
        VmError::new(
            VmErrorKind::NotAProcedure,
            format!("call of non-procedure {}", self.describe(fval)),
        )
    }

    /// A deterministic "wrong lifecycle phase" error for `run`/`start`/
    /// `resume` calls outside their valid phase.
    fn phase_error(&self, wanted: &str) -> VmError {
        let state = match self.phase {
            Phase::Ready => "has not started",
            Phase::Running => "is suspended mid-run",
            Phase::Done => "already ran to completion",
            Phase::Faulted => "previously stopped with an error",
        };
        VmError::new(
            VmErrorKind::BadProgram,
            format!("machine {state}; {wanted}"),
        )
    }

    /// Executes the program to completion.
    ///
    /// Valid only on a fresh machine: calling `run` again after it has
    /// returned — a value *or* an error — is a deterministic
    /// [`VmErrorKind::BadProgram`] error, never unspecified behaviour.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution (with
    /// [`VmErrorKind::Timeout`] when the configured instruction budget runs
    /// out).
    pub fn run(&mut self) -> Result<Word, VmError> {
        self.begin()?;
        match self.step_loop()? {
            StepResult::Done(w) => Ok(w),
            StepResult::Suspended(SuspendReason::FuelExhausted) => {
                self.phase = Phase::Faulted;
                Err(VmError::new(
                    VmErrorKind::Timeout,
                    "instruction budget exhausted",
                ))
            }
        }
    }

    /// Begins a resumable session, executing until completion or fuel
    /// exhaustion.  Unlike [`Machine::run`], an empty instruction budget
    /// is not an error: the machine suspends with all state intact and
    /// [`Machine::resume`] continues it.
    ///
    /// # Errors
    ///
    /// Terminal [`VmError`]s only; suspension is an `Ok` outcome.
    pub fn start(&mut self) -> Result<StepResult, VmError> {
        self.begin()?;
        self.step_loop()
    }

    /// Continues a suspended session, granting `extra_budget` more
    /// instructions (added to whatever budget remains; a machine with no
    /// budget limit stays unlimited).
    ///
    /// # Errors
    ///
    /// Returns [`VmErrorKind::BadProgram`] unless the machine is suspended
    /// (i.e. the last `start`/`resume` returned [`StepResult::Suspended`]);
    /// otherwise any terminal [`VmError`] the continued execution raises.
    pub fn resume(&mut self, extra_budget: u64) -> Result<StepResult, VmError> {
        if self.phase != Phase::Running {
            return Err(self.phase_error("`resume` needs a suspended session"));
        }
        if let Some(rem) = self.remaining.as_mut() {
            *rem = rem.saturating_add(extra_budget);
        }
        self.step_loop()
    }

    /// Remaining instruction budget (`None` = unlimited).
    pub fn fuel(&self) -> Option<u64> {
        self.remaining
    }

    /// Replaces the instruction budget (`None` = unlimited).  Harnesses
    /// use this to pick a first fuel slice before [`Machine::start`].
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.remaining = fuel;
    }

    /// Shared entry: pushes the `main` frame and moves to `Running`.
    fn begin(&mut self) -> Result<(), VmError> {
        if self.phase != Phase::Ready {
            return Err(self.phase_error("build a fresh machine to run again"));
        }
        let main = match self.main_frame() {
            Ok(f) => f,
            Err(e) => {
                self.phase = Phase::Faulted;
                return Err(e);
            }
        };
        self.push_frame(main);
        self.phase = Phase::Running;
        Ok(())
    }

    /// Writes the top frame's pc back from the step loop's local copy.
    fn set_pc(&mut self, pc: usize) {
        self.frames.last_mut().expect("frame").pc = pc;
    }

    /// The fetch/execute loop.  Returns `Done` when the outermost frame
    /// has returned, `Suspended` when the budget ran dry; terminal errors
    /// move the machine to `Faulted`.
    ///
    /// Each pass of the outer loop enters the top frame: it reads the
    /// frame's code and pc into locals, and the inner loop runs that code
    /// until control leaves the frame.  Inside the inner loop the local pc
    /// is the top frame's pc; `Frame::pc` is written back wherever the
    /// frame outlives the inner loop — before a call, before trap delivery,
    /// at suspension and on falling off the end — so it is current
    /// whenever control is outside it.  A tail call or a return replaces
    /// or drops the frame, so its pc is dead there.
    fn step_loop(&mut self) -> Result<StepResult, VmError> {
        // The code never changes once loaded.  One handle per slice lets
        // each instruction be borrowed while the machine state changes.
        let program = Rc::clone(&self.program);
        // `?` for the inner loop: a failed operation leaves it with the
        // error, which is then delivered as a trap.
        macro_rules! or_trap {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break e,
                }
            };
        }
        'frames: loop {
            let Some(top) = self.frames.last() else {
                self.phase = Phase::Done;
                return Ok(StepResult::Done(self.result));
            };
            let fun = &program.funs[top.fnid as usize];
            let insts = &fun.insts[..];
            let mut pc = top.pc;
            let trap = loop {
                let Some(inst) = insts.get(pc) else {
                    self.set_pc(pc);
                    self.phase = Phase::Faulted;
                    return Err(VmError::new(
                        VmErrorKind::BadProgram,
                        format!("fell off the end of `{}`", fun.name),
                    ));
                };
                // The budget is charged before an instruction does anything
                // — including `ResetCounters` — so a limit of N admits
                // exactly N instructions and the counters never record a
                // timed-out one.  Suspension keeps the pc of the refused
                // instruction, which the next `resume` re-fetches, making
                // the slice boundary invisible to the program.
                if let Some(rem) = self.remaining.as_mut() {
                    if *rem == 0 {
                        self.set_pc(pc);
                        return Ok(StepResult::Suspended(SuspendReason::FuelExhausted));
                    }
                    *rem -= 1;
                }
                pc += 1;
                // `ResetCounters` clears this count along with the rest.
                self.counters.count(inst.class());
                match *inst {
                    Inst::Const { d, imm } => self.set_r(d, imm),
                    Inst::Pool { d, idx } => self.set_r(d, self.pool[idx as usize]),
                    Inst::Move { d, s } => self.set_r(d, self.r(s)),
                    Inst::Bin { op, d, a, b } => {
                        let v = or_trap!(self.binop(op, self.r(a), self.r(b)));
                        self.set_r(d, v);
                    }
                    Inst::BinI { op, d, a, imm } => {
                        let v = or_trap!(self.binop(op, self.r(a), imm as i64));
                        self.set_r(d, v);
                    }
                    Inst::LoadD { d, p, disp } => {
                        let addr = self.r(p).wrapping_add(disp as i64);
                        let w = or_trap!(self.heap.get((addr >> 3) as usize));
                        self.set_r(d, w);
                    }
                    Inst::LoadX { d, p, x, disp } => {
                        let addr = self.r(p).wrapping_add(self.r(x)).wrapping_add(disp as i64);
                        let w = or_trap!(self.heap.get((addr >> 3) as usize));
                        self.set_r(d, w);
                    }
                    Inst::StoreD { p, disp, s } => {
                        let addr = self.r(p).wrapping_add(disp as i64);
                        or_trap!(self.heap.set((addr >> 3) as usize, self.r(s)));
                    }
                    Inst::StoreX { p, x, disp, s } => {
                        let addr = self.r(p).wrapping_add(self.r(x)).wrapping_add(disp as i64);
                        or_trap!(self.heap.set((addr >> 3) as usize, self.r(s)));
                    }
                    Inst::AllocFill { d, len, fill, rep } => {
                        let w = or_trap!(self.alloc_fill(len, fill, rep));
                        self.set_r(d, w);
                    }
                    Inst::Jump { t } => pc = t as usize,
                    Inst::JumpCmp { op, a, b, t } => {
                        let b = match b {
                            RegImm::Reg(r) => self.r(r),
                            RegImm::Imm(i) => i as i64,
                        };
                        if cmp_taken(op, self.r(a), b) {
                            pc = t as usize;
                        }
                    }
                    Inst::GlobalGet { d, g } => self.set_r(d, self.globals[g as usize]),
                    Inst::GlobalSet { g, s } => self.globals[g as usize] = self.r(s),
                    Inst::MakeClosure { d, f, ref free } => {
                        let w = or_trap!(self.make_closure(f, free));
                        self.set_r(d, w);
                    }
                    Inst::ClosureSet { clo, idx, val } => {
                        let at = field_index(self.r(clo), 2 + idx as usize);
                        or_trap!(self.heap.set(at, self.r(val)));
                    }
                    Inst::Call { d, f, ref args } => {
                        let fnid = or_trap!(self.closure_target(self.r(f)));
                        self.counters.calls += 1;
                        self.set_pc(pc);
                        or_trap!(self.call(fnid, f, args, d));
                        continue 'frames;
                    }
                    Inst::CallKnown {
                        d,
                        f,
                        clo,
                        ref args,
                    } => {
                        self.counters.calls += 1;
                        self.set_pc(pc);
                        or_trap!(self.call(f, clo, args, d));
                        continue 'frames;
                    }
                    Inst::TailCall { f, ref args } => {
                        let fnid = or_trap!(self.closure_target(self.r(f)));
                        self.counters.calls += 1;
                        or_trap!(self.tail_call(fnid, f, args));
                        continue 'frames;
                    }
                    Inst::TailCallKnown { f, clo, ref args } => {
                        self.counters.calls += 1;
                        or_trap!(self.tail_call(f, clo, args));
                        continue 'frames;
                    }
                    Inst::Ret { s } => {
                        let v = self.r(s);
                        let frame = self.frames.pop().expect("frame");
                        self.regs.truncate(frame.base);
                        match self.frames.last() {
                            Some(caller) => {
                                self.top_base = caller.base;
                                self.set_r(frame.ret_dst, v);
                            }
                            None => self.result = v,
                        }
                        continue 'frames;
                    }
                    Inst::Rep { op, d, ref args } => {
                        let v = or_trap!(self.rep_generic(op, args));
                        self.set_r(d, v);
                    }
                    Inst::Intern { d, s } => {
                        let sym = or_trap!(self.intern_value(self.r(s)));
                        self.set_r(d, sym);
                    }
                    Inst::WriteChar { s } => {
                        let Some(char_role) = self.role.char else {
                            break VmError::new(
                                VmErrorKind::BadProgram,
                                "no `char` representation role",
                            );
                        };
                        let code = char_role.decode(self.r(s)) as u32;
                        self.output.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    Inst::ErrorOp { s } => {
                        let w = self.r(s);
                        self.pending_trap = Some(PendingTrap::Payload(w));
                        break VmError::new(
                            VmErrorKind::SchemeError,
                            format!("error: {}", self.describe(w)),
                        );
                    }
                    Inst::PushHandler { h, d, t } => {
                        self.handlers.push(Handler {
                            depth: self.frames.len(),
                            handler: self.r(h),
                            dst: d,
                            t,
                        });
                    }
                    Inst::PopHandler => {
                        if self.handlers.pop().is_none() {
                            break VmError::new(
                                VmErrorKind::BadProgram,
                                "PopHandler with no handler installed",
                            );
                        }
                    }
                    Inst::RaiseOp { s } => {
                        let w = self.r(s);
                        self.pending_trap = Some(PendingTrap::Reraise(w));
                        break VmError::new(
                            VmErrorKind::UncaughtCondition,
                            format!("uncaught condition: {}", self.describe(w)),
                        );
                    }
                    Inst::ResetCounters => self.counters.reset(),
                }
            };
            self.set_pc(pc);
            if let Err(fatal) = self.deliver_trap(trap) {
                self.phase = Phase::Faulted;
                return Err(fatal);
            }
        }
    }

    /// `AllocFill`: a fresh object of pointer representation `rep` with
    /// `len` fields, each `fill`.
    fn alloc_fill(&mut self, len: RegImm, fill: Reg, rep: RepId) -> Result<Word, VmError> {
        let len = match len {
            // The structural check proved the immediate is not negative.
            RegImm::Imm(n) => n as usize,
            RegImm::Reg(r) => {
                let len = self.r(r);
                if !(0..=(1 << 40)).contains(&len) {
                    return Err(VmError::new(
                        VmErrorKind::BadRepOperation,
                        format!("allocation of {len} fields"),
                    ));
                }
                len as usize
            }
        };
        let RepKind::Pointer { tag, .. } = self.registry.info(rep).kind else {
            unreachable!("the structural check admits only pointer allocations");
        };
        self.ensure_space(len + 1)?;
        let fill = self.r(fill); // after possible GC
        self.alloc_object(len, rep as u16, tag, fill)
    }

    /// `MakeClosure`: a closure of function `f` capturing the registers
    /// `free`.
    fn make_closure(&mut self, f: u32, free: &[Reg]) -> Result<Word, VmError> {
        let n = free.len();
        self.ensure_space(n + 2)?;
        let code = self.role.fixnum.encode(f as i64);
        let (rep, tag) = (self.role.closure.id as u16, self.role.closure.tag);
        let w = self.alloc_object(n + 1, rep, tag, code)?;
        let base = (w >> 3) as usize;
        for (i, &r) in free.iter().enumerate() {
            self.heap.set(base + 2 + i, self.r(r))?;
        }
        Ok(w)
    }

    /// Attempts to deliver a trap to the innermost handler.
    ///
    /// Terminal kinds ([`VmErrorKind::BadProgram`],
    /// [`VmErrorKind::BadMemoryAccess`], [`VmErrorKind::Timeout`]) are
    /// never handled.  For recoverable kinds the frame stack is unwound to
    /// the handler's install depth *first* (dropping dead roots), then the
    /// condition value is built — so its allocation sees the post-unwind
    /// root set — and the handler closure is called with it.  The handler
    /// runs with its own entry already popped, so a re-raise propagates
    /// outward.
    ///
    /// `Ok(())` means the handler frame is in place and execution should
    /// continue; `Err` re-surfaces the (original) terminal error.
    fn deliver_trap(&mut self, e: VmError) -> Result<(), VmError> {
        let pending = self.pending_trap.take();
        if matches!(
            e.kind,
            VmErrorKind::BadProgram
                | VmErrorKind::BadMemoryAccess
                | VmErrorKind::Timeout
                | VmErrorKind::RejectedByVerifier { .. }
        ) {
            return Err(e);
        }
        // Innermost handler whose frame is still live (hand-built code can
        // return past a PushHandler; such stale entries are discarded).
        let h = loop {
            match self.handlers.pop() {
                None => return Err(e),
                Some(h) if h.depth <= self.frames.len() => break h,
                Some(_) => continue,
            }
        };
        self.unwind_to(h.depth);
        // Building the condition may collect, and the popped entry no
        // longer roots the handler closure: it rides in `trap_roots`.
        self.trap_roots.push(h.handler);
        let cond = match pending {
            Some(PendingTrap::Reraise(w)) => Ok(w),
            Some(PendingTrap::Payload(w)) => self.build_condition(&e, Some(w)),
            None => self.build_condition(&e, None),
        };
        let handler = self.trap_roots.pop().expect("handler root");
        // The condition itself would not fit (or the library defines no
        // condition representation): the original error is terminal after
        // all.
        let Ok(cond) = cond else {
            return Err(e);
        };
        let fnid = self.closure_target(handler)?;
        let fun = &self.program.funs[fnid as usize];
        if fun.variadic || fun.arity != 1 {
            return Err(self.arity_error(fnid, false, 1));
        }
        let nregs = fun.nregs;
        // The handler is entered like any call; when the stack cannot hold
        // its frame, the original error is terminal after all.
        let Ok(base) = self.reserve_frame().and_then(|()| self.push_window(nregs)) else {
            return Err(e);
        };
        self.frames.last_mut().expect("installing frame").pc = h.t as usize;
        self.regs[base] = handler;
        self.regs[base + 1] = cond;
        self.counters.calls += 1;
        self.push_frame(Frame {
            fnid,
            pc: 0,
            base,
            ret_dst: h.dst,
        });
        Ok(())
    }

    /// Builds the condition object for `e`: a 4-field record of the
    /// library's `condition` representation holding
    /// `[kind-symbol, p1, p2, p3]` — for out-of-memory that is
    /// `[kind, requested, capacity, phase-symbol]`, for `%error` it is
    /// `[kind, value, #f, #f]`, otherwise the payload fields are `#f`.
    ///
    /// All heap space (fresh symbols included) is reserved up front with
    /// the quiet path, and `payload` rides in `trap_roots` across that
    /// reservation, so a collection here cannot lose it.
    fn build_condition(&mut self, e: &VmError, payload: Option<Word>) -> Result<Word, VmError> {
        let cond = self
            .registry
            .pointer_role(roles::CONDITION)
            .ok_or_else(|| {
                VmError::new(
                    VmErrorKind::BadProgram,
                    "library did not provide a `condition` representation role",
                )
            })?;
        let kind_label = e.kind.label();
        let phase_label = match e.kind {
            VmErrorKind::OutOfMemory { phase, .. } => Some(match phase {
                OomPhase::Alloc => "alloc",
                OomPhase::Collect => "collect",
            }),
            _ => None,
        };
        let mut need = 5; // the condition record: header + 4 fields
        if !self.interned.contains_key(kind_label) {
            need += 3 + kind_label.len();
        }
        if let Some(p) = phase_label {
            if !self.interned.contains_key(p) {
                need += 3 + p.len();
            }
        }
        let false_word = self.role.false_word;
        self.trap_roots.push(payload.unwrap_or(false_word));
        if let Err(oom) = self.ensure_space_quiet(need) {
            self.trap_roots.pop();
            return Err(oom);
        }
        // No collection can run until `need` words are consumed; every
        // word below is stable.
        let payload_w = self.trap_roots.pop().expect("trap root");
        let ksym = self.intern_loaded(kind_label)?;
        let (p1, p2, p3) = match e.kind {
            VmErrorKind::OutOfMemory {
                requested,
                capacity,
                ..
            } => {
                let psym = self.intern_loaded(phase_label.expect("oom phase"))?;
                (
                    self.registry
                        .encode_immediate(self.role.fixnum.id, requested as i64),
                    self.registry
                        .encode_immediate(self.role.fixnum.id, capacity as i64),
                    psym,
                )
            }
            VmErrorKind::SchemeError | VmErrorKind::UncaughtCondition => {
                (payload_w, false_word, false_word)
            }
            _ => (false_word, false_word, false_word),
        };
        let w = self.alloc_object(4, cond.id as u16, cond.tag, false_word)?;
        let base = (w >> 3) as usize;
        self.heap.set(base + 1, ksym)?;
        self.heap.set(base + 2, p1)?;
        self.heap.set(base + 3, p2)?;
        self.heap.set(base + 4, p3)?;
        Ok(w)
    }

    fn binop(&self, op: BinOp, a: Word, b: Word) -> Result<Word, VmError> {
        Ok(match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Quot => {
                if b == 0 {
                    return Err(VmError::new(VmErrorKind::DivideByZero, "quotient by zero"));
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(VmError::new(VmErrorKind::DivideByZero, "remainder by zero"));
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::CmpEq => (a == b) as i64,
            BinOp::CmpLt => (a < b) as i64,
        })
    }

    /// Builds a first-class rep-type object for `rid`.
    pub(crate) fn make_rep_object(&mut self, rid: RepId) -> Result<Word, VmError> {
        let reptype = self.role.rep_type.ok_or_else(|| {
            VmError::new(
                VmErrorKind::BadProgram,
                "first-class representation objects require the `rep-type` role",
            )
        })?;
        let payload = self.role.fixnum.encode(rid as i64);
        self.alloc_object(1, reptype.id as u16, reptype.tag, payload)
    }

    fn no_rep_type_role() -> VmError {
        VmError::new(VmErrorKind::BadProgram, "no `rep-type` role registered")
    }

    #[cold]
    fn rep_type_outside_heap(&self, w: Word) -> VmError {
        VmError::new(
            VmErrorKind::BadRepOperation,
            format!(
                "not a representation type ({} points outside the heap)",
                self.describe(w)
            ),
        )
    }

    fn rep_id_of(&self, w: Word) -> Result<RepId, VmError> {
        let reptype = self.role.rep_type.ok_or_else(Machine::no_rep_type_role)?;
        if !reptype.matches(w) {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!("not a representation type: {}", self.describe(w)),
            ));
        }
        // A word with the `rep-type` tag need not point into the heap:
        // `%rep-inject` can forge one.
        let outside = |_| self.rep_type_outside_heap(w);
        let base = (w >> 3) as usize;
        if header_type(self.heap.get(base).map_err(outside)?) != reptype.id as u16 {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                "not a representation type (wrong record type)",
            ));
        }
        // The payload is an ordinary field: `%rep-set!` through the
        // first-class `rep-type` representation can overwrite it, so it
        // is checked like any other input before it indexes the registry.
        let payload = self.heap.get(base + 1).map_err(outside)?;
        let forged = |what: String| {
            VmError::new(
                VmErrorKind::BadRepOperation,
                format!("not a representation type ({what})"),
            )
        };
        if !self.role.fixnum.matches(payload) {
            return Err(forged(format!("id field holds {}", self.describe(payload))));
        }
        let id = self.role.fixnum.decode(payload);
        RepId::try_from(id)
            .ok()
            .filter(|&id| (id as usize) < self.registry.len())
            .ok_or_else(|| forged(format!("unknown representation id {id}")))
    }

    /// The representation `w` names when it is offered as the first
    /// `rep-type` role, which no [`Machine::rep_id_of`] can decode yet:
    /// `w` must describe itself — a pointer tagged as representation `r`,
    /// to a record whose header type and id field both name `r`.  That is
    /// what `%make-pointer-type` builds for the representation of
    /// representation types.
    fn self_described_rep(&self, w: Word) -> Result<RepId, VmError> {
        let base = (w >> 3) as usize;
        if !self.ptr_table[(w & 0b111) as usize] {
            return Err(Machine::no_rep_type_role());
        }
        let rid = header_type(self.heap.get(base)?) as RepId;
        let payload = self.heap.get(base + 1)?;
        let tagged_as = |r: RepId| match self.registry.info(r).kind {
            RepKind::Pointer { tag, .. } => tag == (w & 0b111) as u64,
            RepKind::Immediate { .. } => false,
        };
        let describes_itself = self.role.fixnum.matches(payload)
            && self.role.fixnum.decode(payload) == rid as i64
            && (rid as usize) < self.registry.len()
            && tagged_as(rid);
        if describes_itself {
            Ok(rid)
        } else {
            Err(Machine::no_rep_type_role())
        }
    }

    fn fixnum_arg(&self, w: Word, what: &str) -> Result<i64, VmError> {
        if !self.role.fixnum.matches(w) {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!("{what} must be a fixnum, got {}", self.describe(w)),
            ));
        }
        Ok(self.role.fixnum.decode(w))
    }

    fn symbol_name(&self, w: Word) -> Result<String, VmError> {
        let sym = self
            .role
            .symbol
            .ok_or_else(|| VmError::new(VmErrorKind::BadProgram, "no `symbol` role"))?;
        if !sym.matches(w) {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!("expected a symbol, got {}", self.describe(w)),
            ));
        }
        let str_ptr = self.heap.get(field_index(w, 1))?;
        self.string_content(str_ptr)
    }

    pub(crate) fn string_content(&self, w: Word) -> Result<String, VmError> {
        let string = self
            .role
            .string
            .ok_or_else(|| VmError::new(VmErrorKind::BadProgram, "no `string` role"))?;
        let char_role = self
            .role
            .char
            .ok_or_else(|| VmError::new(VmErrorKind::BadProgram, "no `char` role"))?;
        if !string.matches(w) {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!("expected a string, got {}", self.describe(w)),
            ));
        }
        let base = (w >> 3) as usize;
        let len = header_len(self.heap.get(base)?);
        let mut s = String::with_capacity(len);
        for i in 0..len {
            let cw = self.heap.get(base + 1 + i)?;
            let code = char_role.decode(cw) as u32;
            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
        }
        Ok(s)
    }

    /// Interns the symbol named by the string at `string_ptr` (the runtime
    /// `Intern` instruction).  The name is copied out of the heap before the
    /// reservation, so the safe point below is a real one: every value the
    /// rest of this function touches is either a root or allocated inside
    /// the reservation.
    pub(crate) fn intern_value(&mut self, string_ptr: Word) -> Result<Word, VmError> {
        let name = self.string_content(string_ptr)?;
        if let Some(w) = self.interned.get(&name) {
            return Ok(*w);
        }
        // Reserve the name string and the symbol cell together: the freshly
        // encoded string in `intern_reserved` is not a GC root, so no
        // collection may run between encoding it and installing it in the
        // interned table (via the symbol, which is a root).
        self.ensure_space(1 + name.chars().count() + 2)?;
        self.intern_reserved(name)
    }

    /// Load-time interning for quoted symbols.  Deliberately *quiet*: the
    /// constant encoder holds partially built structure (list tails, vector
    /// elements) in Rust locals that are not GC roots, so no collection —
    /// fault-forced or otherwise — may run during pool construction.
    /// [`Machine::build_pool`]'s up-front reservation (which budgets
    /// `1 + chars + 2` words per fresh symbol, see
    /// [`encode::words_needed`]) guarantees the quiet reserve never
    /// collects here.
    pub(crate) fn intern_loaded(&mut self, name: &str) -> Result<Word, VmError> {
        if let Some(w) = self.interned.get(name) {
            return Ok(*w);
        }
        self.ensure_space_quiet(1 + name.chars().count() + 2)?;
        self.intern_reserved(name.to_string())
    }

    /// Shared tail of the interning paths.  Space for the name string and
    /// the symbol cell must already be reserved.
    fn intern_reserved(&mut self, name: String) -> Result<Word, VmError> {
        let sym = self
            .role
            .symbol
            .ok_or_else(|| VmError::new(VmErrorKind::BadProgram, "no `symbol` role"))?;
        let fresh = encode::encode_string(self, &name)?;
        let w = self.alloc_object(1, sym.id as u16, sym.tag, fresh)?;
        self.interned.insert(name, w);
        Ok(w)
    }

    fn rep_generic(&mut self, op: RepVmOp, args: &[Reg]) -> Result<Word, VmError> {
        match op {
            RepVmOp::MakeImm => {
                let name = self.symbol_name(self.r(args[0]))?;
                let tag_bits = self.fixnum_arg(self.r(args[1]), "tag-bits")? as u32;
                let tag = self.fixnum_arg(self.r(args[2]), "tag")? as u64;
                let shift = self.fixnum_arg(self.r(args[3]), "shift")? as u32;
                let rid = self
                    .registry
                    .intern_immediate(&name, tag_bits, tag, shift)
                    .map_err(|e| VmError::new(VmErrorKind::BadRepOperation, e.0))?;
                self.make_rep_object(rid)
            }
            RepVmOp::MakePtr => {
                let name = self.symbol_name(self.r(args[0]))?;
                let tag = self.fixnum_arg(self.r(args[1]), "tag")? as u64;
                let discriminated = self.r(args[2]) != self.role.false_word;
                let rid = self
                    .registry
                    .intern_pointer(&name, tag, discriminated)
                    .map_err(|e| VmError::new(VmErrorKind::BadRepOperation, e.0))?;
                self.ptr_table = self.registry.pointer_pattern_table();
                self.make_rep_object(rid)
            }
            RepVmOp::Provide => {
                let role = self.symbol_name(self.r(args[0]))?;
                let rep = self.r(args[1]);
                let rid = match self.role.rep_type {
                    None if role == roles::REP_TYPE => self.self_described_rep(rep)?,
                    _ => self.rep_id_of(rep)?,
                };
                self.registry
                    .provide_role(&role, rid)
                    .map_err(|e| VmError::new(VmErrorKind::BadRepOperation, e.0))?;
                self.role.fill(&self.registry);
                Ok(self.role.unspec_word)
            }
            RepVmOp::Inject => {
                let rid = self.rep_id_of(self.r(args[0]))?;
                let w = self.r(args[1]);
                Ok(match self.registry.info(rid).kind {
                    RepKind::Immediate { tag, shift, .. } => (w << shift) | tag as i64,
                    RepKind::Pointer { tag, .. } => w | tag as i64,
                })
            }
            RepVmOp::Project => {
                let rid = self.rep_id_of(self.r(args[0]))?;
                let w = self.r(args[1]);
                Ok(match self.registry.info(rid).kind {
                    RepKind::Immediate { shift, .. } => w >> shift,
                    RepKind::Pointer { .. } => w & !0b111,
                })
            }
            RepVmOp::Test => {
                let rid = self.rep_id_of(self.r(args[0]))?;
                let w = self.r(args[1]);
                let info = self.registry.info(rid);
                let mut ok = self.registry.tag_matches(rid, w);
                if ok {
                    if let RepKind::Pointer {
                        discriminated: true,
                        ..
                    } = info.kind
                    {
                        let base = (w >> 3) as usize;
                        ok = header_type(self.heap.get(base)?) == rid as u16;
                    }
                }
                Ok(ok as i64)
            }
            RepVmOp::Alloc => {
                let n = self.r(args[1]);
                if !(0..=(1 << 40)).contains(&n) {
                    return Err(VmError::new(
                        VmErrorKind::BadRepOperation,
                        format!("rep-alloc of {n} fields"),
                    ));
                }
                self.ensure_space(n as usize + 1)?;
                // Re-read after potential GC.
                let rid = self.rep_id_of(self.r(args[0]))?;
                let fill = self.r(args[2]);
                let RepKind::Pointer { tag, .. } = self.registry.info(rid).kind else {
                    return Err(VmError::new(
                        VmErrorKind::BadRepOperation,
                        "rep-alloc of an immediate representation",
                    ));
                };
                self.alloc_object(n as usize, rid as u16, tag, fill)
            }
            RepVmOp::Ref | RepVmOp::Set | RepVmOp::Len => {
                let rid = self.rep_id_of(self.r(args[0]))?;
                let v = self.r(args[1]);
                if !self.registry.tag_matches(rid, v) {
                    return Err(VmError::new(
                        VmErrorKind::BadRepOperation,
                        format!(
                            "value is not a {}: {}",
                            self.registry.info(rid).name,
                            self.describe(v)
                        ),
                    ));
                }
                let base = (v >> 3) as usize;
                let len = header_len(self.heap.get(base)?);
                match op {
                    RepVmOp::Len => Ok(len as i64),
                    _ => {
                        let i = self.r(args[2]);
                        if !(0..len as i64).contains(&i) {
                            return Err(VmError::new(
                                VmErrorKind::BadRepOperation,
                                format!("field index {i} out of range 0..{len}"),
                            ));
                        }
                        match op {
                            RepVmOp::Ref => self.heap.get(base + 1 + i as usize),
                            RepVmOp::Set => {
                                let x = self.r(args[3]);
                                self.heap.set(base + 1 + i as usize, x)?;
                                Ok(self.role.unspec_word)
                            }
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
    }
}

/// The heap index of word `i` of the object `w` points to.  An address
/// past any heap stays past it instead of overflowing, so a wild pointer is
/// a `BadMemoryAccess` in every build.
fn field_index(w: Word, i: usize) -> usize {
    ((w >> 3) as usize).saturating_add(i)
}

/// Whether a fused compare-and-branch is taken.
#[inline]
fn cmp_taken(op: CmpOp, a: Word, b: Word) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    //! Register-stack invariants, checked at every suspension of fuel-sliced
    //! runs of hand-built programs.

    use super::*;
    use crate::inst::{CodeFun, Inst, RegImm};

    /// Fixnum 1 (fixnums are tagged `n << 3`).
    const ONE: i32 = 8;

    fn fun(arity: usize, nregs: usize, insts: Vec<Inst>) -> CodeFun {
        CodeFun {
            name: format!("f{nregs}"),
            arity,
            variadic: false,
            nregs,
            free_count: 0,
            insts,
            ptr_map: vec![true; nregs],
            free_ptr_map: vec![],
        }
    }

    /// `n -> other(n - 1) + 1`, and `n` itself at 0; `tail` makes the call
    /// a tail call, `trap` makes the base case divide by zero.
    fn count(other: u32, nregs: usize, tail: bool, trap: bool) -> CodeFun {
        let (a, d, f, clo, args) = (1, 2, other, 0, vec![2]);
        let jump = Inst::JumpCmp {
            op: CmpOp::Ne,
            a,
            b: RegImm::Imm(0),
            t: 2,
        };
        let base = if trap {
            let op = BinOp::Quot;
            Inst::Bin { op, d, a, b: a }
        } else {
            Inst::Ret { s: a }
        };
        let call = if tail {
            Inst::TailCallKnown { f, clo, args }
        } else {
            Inst::CallKnown { d, f, clo, args }
        };
        let (dec, inc) = (BinOp::Sub, BinOp::Add);
        let step = |op, a| Inst::BinI { op, d, a, imm: ONE };
        let insts = vec![
            jump,
            base,
            step(dec, a),
            call,
            step(inc, d),
            Inst::Ret { s: d },
        ];
        fun(1, nregs, insts)
    }

    /// A machine whose `main` installs a handler returning 7, calls
    /// `funs[0]` on `args` (r4 = `n`, r5 = 2, r6 = 3) and returns its value.
    fn machine(n: i64, args: Vec<Reg>, funs: Vec<CodeFun>, fault: FaultPlan) -> Machine {
        let fx = |n: i64| n * ONE as i64;
        let closure = |d, f| Inst::MakeClosure { d, f, free: vec![] };
        let main = vec![
            closure(1, 1),
            closure(2, 2),
            Inst::PushHandler { h: 1, d: 3, t: 8 },
            Inst::Const { d: 4, imm: fx(n) },
            Inst::Const { d: 5, imm: fx(2) },
            Inst::Const { d: 6, imm: fx(3) },
            Inst::Call { d: 3, f: 2, args },
            Inst::PopHandler,
            Inst::Ret { s: 3 },
        ];
        let handler = vec![Inst::Const { d: 1, imm: fx(7) }, Inst::Ret { s: 1 }];
        let mut registry = RepRegistry::new();
        for (role, bits, tag) in [("fixnum", 3, 0), ("boolean", 8, 2), ("char", 8, 18)] {
            let id = registry.intern_immediate(role, bits, tag, bits).unwrap();
            registry.provide_role(role, id).unwrap();
        }
        for (role, tag) in [("null", 34), ("unspecified", 50)] {
            let id = registry.intern_immediate(role, 8, tag, 8).unwrap();
            registry.provide_role(role, id).unwrap();
        }
        for (role, tag) in [("pair", 1), ("string", 5), ("symbol", 6), ("closure", 7)] {
            let id = registry.intern_pointer(role, tag, false).unwrap();
            registry.provide_role(role, id).unwrap();
        }
        let id = registry.intern_pointer("condition", 4, true).unwrap();
        registry.provide_role("condition", id).unwrap();
        let program = CodeProgram {
            funs: [vec![fun(0, 7, main), fun(1, 2, handler)], funs].concat(),
            main: 0,
            pool: vec![],
            nglobals: 0,
            global_names: vec![],
            registry,
        };
        let config = MachineConfig {
            fault,
            ..MachineConfig::default()
        };
        Machine::new(program, config).unwrap()
    }

    /// Runs `m` in fuel slices of `slice`, checking that frame windows are
    /// contiguous from the bottom of the stack, that the stack ends at the
    /// top frame's window, and that the cached base is the top frame's.
    /// Returns the result and the deepest frame stack seen.
    fn run_sliced(m: &mut Machine, slice: u64) -> (Word, usize) {
        m.set_fuel(Some(slice));
        let (mut step, mut depth) = (m.start().unwrap(), 0);
        while let StepResult::Suspended(_) = step {
            let mut end = 0;
            for f in &m.frames {
                assert_eq!(f.base, end, "windows are contiguous");
                end = f.base + m.program.funs[f.fnid as usize].nregs;
            }
            assert_eq!(m.regs.len(), end, "the stack ends at the top window");
            assert_eq!(m.top_base, m.frames.last().expect("frame").base);
            depth = depth.max(m.frames.len());
            step = m.resume(slice).unwrap();
        }
        assert!(m.frames.is_empty() && m.regs.is_empty(), "run empties it");
        let StepResult::Done(w) = step else {
            unreachable!()
        };
        (w, depth)
    }

    #[test]
    fn deep_recursion_keeps_windows_contiguous() {
        let funs = vec![count(3, 3, false, false), count(2, 6, false, false)];
        let mut m = machine(2000, vec![4], funs, FaultPlan::none());
        let (w, depth) = run_sliced(&mut m, 7);
        assert_eq!(w, 2000 * ONE as Word);
        assert!(depth > 2000, "the recursion nests ({depth} frames)");
    }

    #[test]
    fn tail_call_loop_reuses_the_callers_window() {
        // Tail calls alternate between windows of 3 and 8 registers.
        let funs = vec![count(3, 3, true, false), count(2, 8, true, false)];
        let mut m = machine(100_000, vec![4], funs, FaultPlan::none());
        let (w, depth) = run_sliced(&mut m, 13);
        assert_eq!((w, depth), (0, 2), "tail calls never deepen the stack");
        assert!(m.counters.calls > 100_000);
    }

    #[test]
    fn caught_trap_truncates_to_the_installing_frame() {
        // main -> f(3) -> g(2) -> f(1) -> g(0), which divides by zero.
        let funs = vec![count(3, 4, false, true), count(2, 9, false, true)];
        let mut m = machine(3, vec![4], funs, FaultPlan::none());
        let (w, depth) = run_sliced(&mut m, 1);
        assert_eq!(w, 7 * ONE as Word, "the handler's value replaces the trap");
        assert_eq!(depth, 5, "the trap was raised four calls deep");
    }

    #[test]
    fn failed_rest_list_leaves_the_stack_unchanged() {
        // main calls a variadic function on (1 2 3).  Allocations: the two
        // closures, then the rest-list pairs from the last argument back.
        let variadic = CodeFun {
            variadic: true,
            ..fun(0, 4, vec![Inst::Ret { s: 1 }])
        };
        let mut m = machine(1, vec![4, 5, 6], vec![variadic.clone()], FaultPlan::none());
        let w = m.run().unwrap();
        assert!(m.frames.is_empty() && m.regs.is_empty(), "run empties it");
        assert_eq!((m.describe(w), m.allocations()), ("(1 2 3)".to_string(), 5));
        let fault = FaultPlan::none().with_fail_alloc_at(4);
        let mut m = machine(1, vec![4, 5, 6], vec![variadic], fault);
        let (w, depth) = run_sliced(&mut m, 1);
        assert_eq!(w, 7 * ONE as Word, "the out-of-memory trap was caught");
        assert_eq!(depth, 2, "only the handler's frame was ever pushed");
    }
}
