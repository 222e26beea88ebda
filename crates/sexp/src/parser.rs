//! Datum parser built on top of the [`Lexer`].

use crate::datum::Datum;
use crate::error::{ParseError, ParseErrorKind, Span};
use crate::lexer::{Lexer, Token, TokenKind};

/// A pull parser producing [`Datum`] values from source text.
///
/// # Example
///
/// ```
/// use sxr_sexp::Parser;
/// let mut p = Parser::new("1 (2 . 3) #(4)");
/// assert_eq!(p.next_datum().unwrap().unwrap().to_string(), "1");
/// assert_eq!(p.next_datum().unwrap().unwrap().to_string(), "(2 . 3)");
/// assert_eq!(p.next_datum().unwrap().unwrap().to_string(), "#(4)");
/// assert!(p.next_datum().unwrap().is_none());
/// ```
#[derive(Debug)]
pub struct Parser<'a> {
    lexer: Lexer<'a>,
    lookahead: Option<Token>,
    last_span: Span,
    /// Nested reads in progress (one per enclosing list, vector, quote
    /// prefix or datum comment, plus the read itself).
    depth: usize,
}

/// How deeply data may nest: lists, vectors, quote prefixes (`'x` is
/// `(quote x)`) and datum comments. Reading recurses once per level, and so
/// do the passes after it, so the reader refuses deeper input with
/// [`ParseErrorKind::TooDeep`] instead of letting it exhaust the stack.
pub const MAX_NESTING: usize = 32_768;

impl<'a> Parser<'a> {
    /// Creates a parser over `src`.
    pub fn new(src: &'a str) -> Parser<'a> {
        Parser {
            lexer: Lexer::new(src),
            lookahead: None,
            last_span: Span::default(),
            depth: 0,
        }
    }

    fn next_tok(&mut self) -> Result<Option<Token>, ParseError> {
        let tok = match self.lookahead.take() {
            Some(t) => Some(t),
            None => self.lexer.next_token()?,
        };
        if let Some(t) = &tok {
            self.last_span = t.span;
        }
        Ok(tok)
    }

    fn put_back(&mut self, t: Token) {
        debug_assert!(self.lookahead.is_none(), "single-token lookahead");
        self.lookahead = Some(t);
    }

    /// Reads the next datum, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input.
    pub fn next_datum(&mut self) -> Result<Option<Datum>, ParseError> {
        Ok(self.next_datum_spanned()?.map(|(d, _)| d))
    }

    /// Reads the next datum together with its source span, or `None` at end
    /// of input.  The span covers the whole datum (open paren through close
    /// paren for lists), not counting any preceding datum comments.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input.
    pub fn next_datum_spanned(&mut self) -> Result<Option<(Datum, Span)>, ParseError> {
        self.depth += 1;
        let read = self.read_spanned();
        self.depth -= 1;
        read
    }

    fn read_spanned(&mut self) -> Result<Option<(Datum, Span)>, ParseError> {
        loop {
            let tok = match self.next_tok()? {
                Some(t) => t,
                None => return Ok(None),
            };
            let nests = matches!(
                tok.kind,
                TokenKind::LParen
                    | TokenKind::VecOpen
                    | TokenKind::Quote
                    | TokenKind::Quasiquote
                    | TokenKind::Unquote
                    | TokenKind::UnquoteSplicing
                    | TokenKind::DatumComment
            );
            if nests && self.depth > MAX_NESTING {
                return Err(ParseError::new(
                    ParseErrorKind::TooDeep(MAX_NESTING),
                    tok.span,
                ));
            }
            match tok.kind {
                TokenKind::DatumComment => {
                    // Read and discard one datum.
                    let span = tok.span;
                    match self.next_datum()? {
                        Some(_) => continue,
                        None => return Err(ParseError::new(ParseErrorKind::UnexpectedEof, span)),
                    }
                }
                _ => {
                    let start = tok.span;
                    let d = self.datum_from(tok)?;
                    let span = Span::new(start.start, self.last_span.end, start.line, start.col);
                    return Ok(Some((d, span)));
                }
            }
        }
    }

    fn expect_datum(&mut self, at: Span) -> Result<Datum, ParseError> {
        match self.next_datum()? {
            Some(d) => Ok(d),
            None => Err(ParseError::new(ParseErrorKind::UnexpectedEof, at)),
        }
    }

    fn datum_from(&mut self, tok: Token) -> Result<Datum, ParseError> {
        match tok.kind {
            TokenKind::Fixnum(n) => Ok(Datum::Fixnum(n)),
            TokenKind::Bool(b) => Ok(Datum::Bool(b)),
            TokenKind::Char(c) => Ok(Datum::Char(c)),
            TokenKind::Str(s) => Ok(Datum::String(s)),
            TokenKind::Symbol(s) => Ok(Datum::Symbol(s)),
            TokenKind::Quote => {
                let d = self.expect_datum(tok.span)?;
                Ok(Datum::quoted(d))
            }
            TokenKind::Quasiquote => {
                let d = self.expect_datum(tok.span)?;
                Ok(Datum::form("quasiquote", vec![d]))
            }
            TokenKind::Unquote => {
                let d = self.expect_datum(tok.span)?;
                Ok(Datum::form("unquote", vec![d]))
            }
            TokenKind::UnquoteSplicing => {
                let d = self.expect_datum(tok.span)?;
                Ok(Datum::form("unquote-splicing", vec![d]))
            }
            TokenKind::LParen => self.finish_list(tok.span),
            TokenKind::VecOpen => self.finish_vector(tok.span),
            TokenKind::RParen => Err(ParseError::new(ParseErrorKind::UnbalancedClose, tok.span)),
            TokenKind::Dot => Err(ParseError::new(ParseErrorKind::MisplacedDot, tok.span)),
            TokenKind::DatumComment => unreachable!("handled by next_datum"),
        }
    }

    fn finish_list(&mut self, open: Span) -> Result<Datum, ParseError> {
        let mut items = Vec::new();
        loop {
            let tok = match self.next_tok()? {
                Some(t) => t,
                None => return Err(ParseError::new(ParseErrorKind::UnexpectedEof, open)),
            };
            match tok.kind {
                TokenKind::RParen => return Ok(Datum::List(items)),
                TokenKind::Dot => {
                    if items.is_empty() {
                        return Err(ParseError::new(ParseErrorKind::MisplacedDot, tok.span));
                    }
                    let tail = self.expect_datum(tok.span)?;
                    let close = match self.next_tok()? {
                        Some(t) => t,
                        None => return Err(ParseError::new(ParseErrorKind::UnexpectedEof, open)),
                    };
                    if close.kind != TokenKind::RParen {
                        return Err(ParseError::new(ParseErrorKind::MisplacedDot, close.span));
                    }
                    // Normalize (a . (b c)) to (a b c), and (a . (b . c)) to (a b . c).
                    return Ok(match tail {
                        Datum::List(rest) => {
                            items.extend(rest);
                            Datum::List(items)
                        }
                        Datum::Improper(mid, t) => {
                            items.extend(mid);
                            Datum::Improper(items, t)
                        }
                        atom => Datum::Improper(items, Box::new(atom)),
                    });
                }
                TokenKind::DatumComment => {
                    self.expect_datum(tok.span)?;
                }
                _ => {
                    self.put_back(tok);
                    let at = open;
                    items.push(self.expect_datum(at)?);
                }
            }
        }
    }

    fn finish_vector(&mut self, open: Span) -> Result<Datum, ParseError> {
        let mut items = Vec::new();
        loop {
            let tok = match self.next_tok()? {
                Some(t) => t,
                None => return Err(ParseError::new(ParseErrorKind::UnexpectedEof, open)),
            };
            match tok.kind {
                TokenKind::RParen => return Ok(Datum::Vector(items)),
                TokenKind::Dot => {
                    return Err(ParseError::new(ParseErrorKind::MisplacedDot, tok.span))
                }
                TokenKind::DatumComment => {
                    self.expect_datum(tok.span)?;
                }
                _ => {
                    self.put_back(tok);
                    items.push(self.expect_datum(open)?);
                }
            }
        }
    }
}

/// Parses every datum in `src`.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
///
/// # Example
///
/// ```
/// let all = sxr_sexp::parse_all("(a) (b)").unwrap();
/// assert_eq!(all.len(), 2);
/// ```
pub fn parse_all(src: &str) -> Result<Vec<Datum>, ParseError> {
    let mut p = Parser::new(src);
    let mut out = Vec::new();
    while let Some(d) = p.next_datum()? {
        out.push(d);
    }
    Ok(out)
}

/// Parses every datum in `src`, pairing each with its source span (used by
/// tools that report file/line diagnostics, e.g. `sxr lint`).
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
///
/// # Example
///
/// ```
/// let all = sxr_sexp::parse_all_spanned("(a)\n(b c)").unwrap();
/// assert_eq!(all.len(), 2);
/// assert_eq!(all[1].1.line, 2);
/// ```
pub fn parse_all_spanned(src: &str) -> Result<Vec<(Datum, Span)>, ParseError> {
    let mut p = Parser::new(src);
    let mut out = Vec::new();
    while let Some(pair) = p.next_datum_spanned()? {
        out.push(pair);
    }
    Ok(out)
}

/// Parses exactly one datum; trailing data is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] if `src` is empty, malformed, or contains more
/// than one datum.
pub fn parse_one(src: &str) -> Result<Datum, ParseError> {
    let mut p = Parser::new(src);
    let first = p
        .next_datum()?
        .ok_or_else(|| ParseError::new(ParseErrorKind::UnexpectedEof, Span::default()))?;
    if p.next_datum()?.is_some() {
        return Err(ParseError::new(
            ParseErrorKind::BadToken("trailing data after datum".to_string()),
            Span::default(),
        ));
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Datum {
        parse_one(src).unwrap()
    }

    #[test]
    fn atoms() {
        assert_eq!(p("42"), Datum::Fixnum(42));
        assert_eq!(p("#t"), Datum::Bool(true));
        assert_eq!(p("#\\x"), Datum::Char('x'));
        assert_eq!(p("\"hi\""), Datum::String("hi".into()));
        assert_eq!(p("foo"), Datum::Symbol("foo".into()));
    }

    #[test]
    fn lists() {
        assert_eq!(p("()"), Datum::nil());
        assert_eq!(
            p("(1 2 3)"),
            Datum::List(vec![1.into(), 2.into(), 3.into()])
        );
        assert_eq!(
            p("(1 (2) 3)"),
            Datum::List(vec![1.into(), Datum::List(vec![2.into()]), 3.into()])
        );
    }

    #[test]
    fn dotted() {
        assert_eq!(
            p("(1 . 2)"),
            Datum::Improper(vec![1.into()], Box::new(2.into()))
        );
        // (1 . (2 3)) normalizes to a proper list.
        assert_eq!(p("(1 . (2 3))"), p("(1 2 3)"));
        // (1 . (2 . 3)) normalizes to (1 2 . 3).
        assert_eq!(
            p("(1 . (2 . 3))"),
            Datum::Improper(vec![1.into(), 2.into()], Box::new(3.into()))
        );
    }

    #[test]
    fn vectors() {
        assert_eq!(p("#(1 2)"), Datum::Vector(vec![1.into(), 2.into()]));
        assert_eq!(p("#()"), Datum::Vector(vec![]));
    }

    #[test]
    fn quote_sugar() {
        assert_eq!(p("'x"), Datum::quoted("x".into()));
        assert_eq!(
            p("`(a ,b ,@c)").to_string(),
            "(quasiquote (a (unquote b) (unquote-splicing c)))"
        );
    }

    #[test]
    fn datum_comment_everywhere() {
        assert_eq!(p("(1 #;(skip me) 2)"), p("(1 2)"));
        assert_eq!(parse_all("#;1 2").unwrap(), vec![Datum::Fixnum(2)]);
        assert_eq!(p("#(1 #;2 3)"), p("#(1 3)"));
    }

    #[test]
    fn errors() {
        assert!(parse_one("(").is_err());
        assert!(parse_one(")").is_err());
        assert!(parse_one("(. 2)").is_err());
        assert!(parse_one("(1 . 2 3)").is_err());
        assert!(parse_one("#(1 . 2)").is_err());
        assert!(parse_one("").is_err());
        assert!(parse_one("1 2").is_err());
        assert!(parse_one("'").is_err());
    }

    #[test]
    fn parse_all_streams() {
        let all = parse_all("1 (a) \"s\"").unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn spans_cover_whole_datum() {
        let src = "(define (f x)\n  (car x))\n42";
        let all = parse_all_spanned(src).unwrap();
        assert_eq!(all.len(), 2);
        let (_, s0) = &all[0];
        assert_eq!(s0.start, 0);
        assert_eq!(s0.end, src.find("\n42").unwrap());
        assert_eq!((s0.line, s0.col), (1, 1));
        let (d1, s1) = &all[1];
        assert_eq!(d1, &Datum::Fixnum(42));
        assert_eq!(s1.line, 3);
        assert_eq!(&src[s1.start..s1.end], "42");
    }

    #[test]
    fn spans_skip_datum_comments() {
        let all = parse_all_spanned("#;(dead) live").unwrap();
        assert_eq!(all.len(), 1);
        let (d, s) = &all[0];
        assert_eq!(d, &Datum::Symbol("live".into()));
        assert_eq!(s.start, 9);
    }

    #[test]
    fn deep_nesting() {
        let mut src = String::new();
        let depth = 200;
        for _ in 0..depth {
            src.push('(');
        }
        src.push('x');
        for _ in 0..depth {
            src.push(')');
        }
        let mut d = p(&src);
        for _ in 0..depth {
            match d {
                Datum::List(mut items) => {
                    assert_eq!(items.len(), 1);
                    d = items.pop().expect("one item");
                }
                _ => panic!("expected list"),
            }
        }
        assert_eq!(d, Datum::Symbol("x".into()));
    }
}
