//! Code generation for the `sxr` pipeline: closure-converted ANF to VM
//! instructions, plus the Traditional baseline's intrinsic lowering.
//!
//! Two things live here:
//!
//! * [`generate`] — the shared back end, used by every pipeline
//!   configuration. It performs instruction selection, branch fusion,
//!   addressing-mode folding, register assignment, and pointer-map
//!   computation.
//! * [`lower_intrinsics`] — the Traditional baseline's hand-written
//!   per-primitive expansions (the "contorted, traditional techniques" the
//!   paper's abstract approach is measured against).
//!
//! # Example
//!
//! ```
//! use sxr_ast::{convert_assignments, Expander};
//! use sxr_ir::{closure_convert, lower_program, rep::RepRegistry};
//! use sxr_codegen::generate;
//! use sxr_vm::{Machine, MachineConfig};
//!
//! // A miniature "library": declare the layouts the program needs.
//! let mut reg = RepRegistry::new();
//! let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
//! let bo = reg.intern_immediate("boolean", 8, 0b010, 8).unwrap();
//! let un = reg.intern_immediate("unspecified", 8, 0b0001_0010, 8).unwrap();
//! let cl = reg.intern_pointer("closure", 7, false).unwrap();
//! for (r, id) in [("fixnum", fx), ("boolean", bo), ("unspecified", un), ("closure", cl)] {
//!     reg.provide_role(r, id).unwrap();
//! }
//!
//! let mut ex = Expander::new();
//! let forms = sxr_sexp::parse_all("(define (f x) (%word+ x 8)) (f 8)").unwrap();
//! let unit = ex.expand_unit(&forms).unwrap();
//! let mut prog = ex.into_program(vec![unit]);
//! convert_assignments(&mut prog).unwrap();
//! let module = closure_convert(lower_program(prog).unwrap());
//! let code = generate(&module, &reg).unwrap();
//! let mut m = Machine::new(code, MachineConfig::default()).unwrap();
//! let w = m.run().unwrap();
//! // Raw word addition of two tagged shift-3 fixnums is fixnum addition.
//! assert_eq!(m.describe(w), "16");
//! ```

#![forbid(unsafe_code)]

mod gen;
mod intrinsics;

pub use gen::{generate, CodegenError};
pub use intrinsics::{lower_intrinsics, lower_intrinsics_expr, IntrinsicError};
