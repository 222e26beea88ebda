//! Front end of the `sxr` pipeline: the core language and the macro
//! expander.
//!
//! The expander turns surface Scheme (read by [`sxr_sexp`]) into a small core
//! language ([`Expr`]) with:
//!
//! * all derived forms desugared (`let`, `let*`, `letrec`, named `let`,
//!   `cond`, `case`, `when`, `unless`, `and`, `or`, `do`, `quasiquote`,
//!   internal `define`),
//! * every lexical variable alpha-renamed to a unique [`VarId`],
//! * top-level `define`s resolved to [`GlobalId`] slots,
//! * `letrec` *fixed* (lambda-only bindings become [`Expr::LetRec`]; anything
//!   else falls back to box-based initialization), and
//! * assignment conversion: `set!` on lexical variables is rewritten to
//!   library `box` / `unbox` / `set-box!` calls, so the rest of the compiler
//!   never sees a mutable lexical variable.
//!
//! Crucially for the paper's thesis, the expander has **no knowledge of data
//! representations**: applications whose head is a `%`-symbol become
//! [`Expr::Prim`] nodes that are resolved (and, in the abstract pipeline,
//! defined by library code) further down the pipeline.
//!
//! # Example
//!
//! ```
//! use sxr_ast::Expander;
//! use sxr_sexp::parse_all;
//!
//! let forms = parse_all("(define (twice x) (fx+ x x)) (twice 21)").unwrap();
//! let mut ex = Expander::new();
//! ex.declare_global("fx+"); // normally provided by the prelude
//! let unit = ex.expand_unit(&forms).unwrap();
//! assert_eq!(unit.items.len(), 2);
//! ```

#![forbid(unsafe_code)]

mod assignconv;
mod core;
mod expand;
mod scoped;

pub use crate::core::{Expr, GlobalId, Lambda, Program, TopItem, VarId};
pub use assignconv::convert_assignments;
pub use expand::{ExpandError, Expander, Unit};
pub use scoped::ScopedMap;
