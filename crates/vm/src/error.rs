//! Runtime errors.

use std::fmt;

/// Which activity detected an out-of-memory condition — the two are
/// operationally different: an `Alloc` OOM means the request itself can
/// never fit under the capacity cap, a `Collect` OOM means a completed
/// collection failed to reclaim enough space for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OomPhase {
    /// The allocation request exceeds what the heap could ever provide
    /// (or a fault plan failed this allocation by schedule).
    Alloc,
    /// A garbage collection ran to completion but the surviving live data
    /// left too little room for the request, and the capacity cap forbids
    /// growing.
    Collect,
}

impl fmt::Display for OomPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OomPhase::Alloc => "alloc",
            OomPhase::Collect => "collect",
        })
    }
}

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmErrorKind {
    /// Application of a value that is not a procedure.
    NotAProcedure,
    /// Call with the wrong number of arguments.
    ArityMismatch,
    /// Memory access outside the allocated heap.
    BadMemoryAccess,
    /// Division or remainder by zero.
    DivideByZero,
    /// A generic representation operation applied to unsuitable operands.
    BadRepOperation,
    /// `(%error v)` was evaluated; carries the description of `v`.
    SchemeError,
    /// A structural problem in the loaded program (bad ids, missing roles).
    BadProgram,
    /// The configured instruction budget was exhausted (used by tests to
    /// bound runaway programs).
    Timeout,
    /// A call would nest deeper than the configured frame-depth limit, or
    /// the host refused the memory for the callee's registers.
    /// Recoverable: delivery unwinds to the handler's frame first, which
    /// frees the stack the runaway recursion built.
    StackOverflow,
    /// `(%raise v)` was evaluated with no handler installed; carries the
    /// description of `v`.
    UncaughtCondition,
    /// The load-time bytecode verifier rejected the program; the machine
    /// refused to start.  `fun`/`pc` locate the offending instruction and
    /// `rule` is the stable name of the violated verifier rule (see
    /// `sxr-analysis::bcverify`).
    RejectedByVerifier {
        /// Index of the function containing the violation.
        fun: u32,
        /// Instruction offset of the violation within that function.
        pc: u32,
        /// Stable rule label, e.g. `"def-before-use"`.
        rule: &'static str,
    },
    /// The heap could not satisfy an allocation: `requested` words were
    /// needed but only `capacity` words of (capped) heap exist.  Structured
    /// and recoverable — the machine's state is still a valid heap; no
    /// partial object was created.  `phase` distinguishes a request that
    /// could never fit ([`OomPhase::Alloc`]) from a collection that ran but
    /// reclaimed too little ([`OomPhase::Collect`]).
    OutOfMemory {
        /// Words the failing allocation needed (header included).
        requested: usize,
        /// Heap capacity in words at the time of failure.
        capacity: usize,
        /// Which activity detected the exhaustion.
        phase: OomPhase,
    },
}

impl VmErrorKind {
    /// True for any [`VmErrorKind::OutOfMemory`], whatever its payload.
    pub fn is_oom(&self) -> bool {
        matches!(self, VmErrorKind::OutOfMemory { .. })
    }

    /// A stable label for the kind, ignoring payload (used by differential
    /// harnesses to compare error classes across configurations).
    pub fn label(&self) -> &'static str {
        match self {
            VmErrorKind::NotAProcedure => "not-a-procedure",
            VmErrorKind::ArityMismatch => "arity-mismatch",
            VmErrorKind::BadMemoryAccess => "bad-memory-access",
            VmErrorKind::DivideByZero => "divide-by-zero",
            VmErrorKind::BadRepOperation => "bad-rep-operation",
            VmErrorKind::SchemeError => "scheme-error",
            VmErrorKind::BadProgram => "bad-program",
            VmErrorKind::Timeout => "timeout",
            VmErrorKind::StackOverflow => "stack-overflow",
            VmErrorKind::UncaughtCondition => "uncaught-condition",
            VmErrorKind::RejectedByVerifier { .. } => "rejected-by-verifier",
            VmErrorKind::OutOfMemory { .. } => "out-of-memory",
        }
    }
}

/// A runtime error with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError {
    /// The failure category.
    pub kind: VmErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl VmError {
    /// Creates an error.
    pub fn new(kind: VmErrorKind, message: impl Into<String>) -> VmError {
        VmError {
            kind,
            message: message.into(),
        }
    }

    /// Creates a structured out-of-memory error.
    pub fn oom(requested: usize, capacity: usize, phase: OomPhase) -> VmError {
        VmError {
            kind: VmErrorKind::OutOfMemory {
                requested,
                capacity,
                phase,
            },
            message: format!(
                "out of memory during {phase}: {requested} words requested, \
                 {capacity} words of heap"
            ),
        }
    }

    /// Creates a structured verifier rejection.
    pub fn rejected(fun: u32, pc: u32, rule: &'static str, detail: impl Into<String>) -> VmError {
        VmError {
            kind: VmErrorKind::RejectedByVerifier { fun, pc, rule },
            message: format!("fun {fun} pc {pc}: [{rule}] {}", detail.into()),
        }
    }

    /// True for any out-of-memory error.
    pub fn is_oom(&self) -> bool {
        self.kind.is_oom()
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm error: {}", self.message)
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = VmError::new(VmErrorKind::DivideByZero, "quotient by zero");
        assert_eq!(e.to_string(), "vm error: quotient by zero");
    }

    #[test]
    fn oom_is_structured_and_phased() {
        let e = VmError::oom(128, 64, OomPhase::Collect);
        assert!(e.is_oom());
        assert_eq!(
            e.kind,
            VmErrorKind::OutOfMemory {
                requested: 128,
                capacity: 64,
                phase: OomPhase::Collect
            }
        );
        assert!(e.to_string().contains("during collect"));
        assert!(e.to_string().contains("128 words requested"));
        let a = VmError::oom(128, 64, OomPhase::Alloc);
        assert_ne!(a.kind, e.kind, "phases are distinguishable");
        assert_eq!(a.kind.label(), e.kind.label(), "but share one class label");
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(VmErrorKind::Timeout.label(), "timeout");
        assert_eq!(VmErrorKind::StackOverflow.label(), "stack-overflow");
        assert_eq!(VmErrorKind::BadProgram.label(), "bad-program");
        assert_eq!(VmErrorKind::UncaughtCondition.label(), "uncaught-condition");
        assert!(!VmErrorKind::SchemeError.is_oom());
    }

    #[test]
    fn verifier_rejection_is_structured() {
        let e = VmError::rejected(3, 7, "def-before-use", "register r5 read before any write");
        assert_eq!(
            e.kind,
            VmErrorKind::RejectedByVerifier {
                fun: 3,
                pc: 7,
                rule: "def-before-use"
            }
        );
        assert_eq!(e.kind.label(), "rejected-by-verifier");
        assert!(e.to_string().contains("fun 3 pc 7"));
        assert!(e.to_string().contains("[def-before-use]"));
    }
}
