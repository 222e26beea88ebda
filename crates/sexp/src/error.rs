//! Reader errors and source spans.

use std::fmt;

/// A half-open byte range into the source text, with 1-based line/column of
/// the start for human-readable messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
}

impl Span {
    /// Creates a span covering `start..end` at the given line/column.
    pub fn new(start: usize, end: usize, line: u32, col: u32) -> Span {
        Span {
            start,
            end,
            line,
            col,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// What went wrong while reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended inside a datum (unclosed list, string, or block comment).
    UnexpectedEof,
    /// A `)` with no matching `(`.
    UnbalancedClose,
    /// A `.` in an illegal position.
    MisplacedDot,
    /// An unknown `#...` syntax.
    BadHashSyntax(String),
    /// A malformed character literal.
    BadCharLiteral(String),
    /// A malformed string escape.
    BadStringEscape(char),
    /// An integer literal out of fixnum range.
    FixnumOverflow(String),
    /// Any other lexical problem.
    BadToken(String),
    /// Data nested more deeply than the limit it names
    /// ([`MAX_NESTING`](crate::MAX_NESTING)); the error's span is
    /// the opening token that went past it.
    TooDeep(usize),
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            ParseErrorKind::UnbalancedClose => write!(f, "unbalanced `)`"),
            ParseErrorKind::MisplacedDot => write!(f, "misplaced `.`"),
            ParseErrorKind::BadHashSyntax(s) => write!(f, "unknown `#` syntax `{s}`"),
            ParseErrorKind::BadCharLiteral(s) => write!(f, "bad character literal `{s}`"),
            ParseErrorKind::BadStringEscape(c) => write!(f, "bad string escape `\\{c}`"),
            ParseErrorKind::FixnumOverflow(s) => {
                write!(f, "integer literal `{s}` exceeds fixnum range")
            }
            ParseErrorKind::BadToken(s) => write!(f, "bad token `{s}`"),
            ParseErrorKind::TooDeep(limit) => {
                write!(f, "data nested more than {limit} levels deep")
            }
        }
    }
}

/// A reader error with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The failure category.
    pub kind: ParseErrorKind,
    /// Where in the source it happened.
    pub span: Span,
}

impl ParseError {
    /// Creates an error of `kind` at `span`.
    pub fn new(kind: ParseErrorKind, span: Span) -> ParseError {
        ParseError { kind, span }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.kind)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = ParseError::new(ParseErrorKind::UnbalancedClose, Span::new(3, 4, 2, 1));
        assert_eq!(e.to_string(), "parse error at 2:1: unbalanced `)`");
    }
}
