//! S-expression reader and writer for the `sxr` SchemeXerox reproduction.
//!
//! This crate is the bottom layer of the pipeline: it turns program text into
//! [`Datum`] values (and back).  It knows nothing about evaluation, data-type
//! representations, or the compiler — it is a plain, complete reader for the
//! Scheme subset the rest of the system compiles.
//!
//! # Example
//!
//! ```
//! use sxr_sexp::{parse_one, Datum};
//!
//! let d = parse_one("(car '(1 2))").unwrap();
//! assert_eq!(d.to_string(), "(car (quote (1 2)))");
//! match &d {
//!     Datum::List(items) => assert_eq!(items.len(), 2),
//!     _ => panic!("expected a list"),
//! }
//! ```

#![forbid(unsafe_code)]

mod datum;
mod error;
mod lexer;
mod parser;
mod printer;

pub use datum::Datum;
pub use error::{ParseError, ParseErrorKind, Span};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse_all, parse_all_spanned, parse_one, Parser};
pub use printer::{display_datum, write_datum};
