//! Tokenizer for Scheme source text.

use crate::error::{ParseError, ParseErrorKind, Span};

/// The kinds of token the reader distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// `(` or `[`.
    LParen,
    /// `)` or `]`.
    RParen,
    /// `#(` opening a vector literal.
    VecOpen,
    /// `'`.
    Quote,
    /// `` ` ``.
    Quasiquote,
    /// `,`.
    Unquote,
    /// `,@`.
    UnquoteSplicing,
    /// `.` used in dotted pairs.
    Dot,
    /// `#;` datum comment prefix.
    DatumComment,
    /// An integer literal.
    Fixnum(i64),
    /// `#t` / `#f`.
    Bool(bool),
    /// A character literal.
    Char(char),
    /// A string literal (already unescaped).
    Str(String),
    /// An identifier.
    Symbol(String),
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token payload.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

/// A streaming tokenizer over source text.
///
/// # Example
///
/// ```
/// use sxr_sexp::{Lexer, TokenKind};
/// let mut lx = Lexer::new("(+ 1)");
/// assert_eq!(lx.next_token().unwrap().unwrap().kind, TokenKind::LParen);
/// assert_eq!(lx.next_token().unwrap().unwrap().kind, TokenKind::Symbol("+".into()));
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

/// True for characters that terminate an atom.
fn is_delimiter(c: char) -> bool {
    c.is_whitespace() || matches!(c, '(' | ')' | '[' | ']' | '"' | ';' | '\'' | '`' | ',')
}

/// True for characters allowed in symbols. Scheme is permissive; we accept
/// anything that is not a delimiter or `#` at the start.
fn is_symbol_char(c: char) -> bool {
    !is_delimiter(c)
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn span_from(&self, start: usize, line: u32, col: u32) -> Span {
        Span::new(start, self.pos, line, col)
    }

    fn here(&self) -> Span {
        Span::new(self.pos, self.pos, self.line, self.col)
    }

    /// Skips whitespace, line comments, and nested block comments.
    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some(';') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('#') if self.peek2() == Some('|') => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('#'), Some('|')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some('|'), Some('#')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(ParseError::new(ParseErrorKind::UnexpectedEof, start));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Returns the next token, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed lexical syntax.
    pub fn next_token(&mut self) -> Result<Option<Token>, ParseError> {
        self.skip_trivia()?;
        let (start, line, col) = (self.pos, self.line, self.col);
        let c = match self.peek() {
            Some(c) => c,
            None => return Ok(None),
        };
        let kind = match c {
            '(' | '[' => {
                self.bump();
                TokenKind::LParen
            }
            ')' | ']' => {
                self.bump();
                TokenKind::RParen
            }
            '\'' => {
                self.bump();
                TokenKind::Quote
            }
            '`' => {
                self.bump();
                TokenKind::Quasiquote
            }
            ',' => {
                self.bump();
                if self.peek() == Some('@') {
                    self.bump();
                    TokenKind::UnquoteSplicing
                } else {
                    TokenKind::Unquote
                }
            }
            '"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        None => {
                            return Err(ParseError::new(
                                ParseErrorKind::UnexpectedEof,
                                self.span_from(start, line, col),
                            ))
                        }
                        Some('"') => break,
                        Some('\\') => {
                            let esc = self.bump().ok_or_else(|| {
                                ParseError::new(
                                    ParseErrorKind::UnexpectedEof,
                                    self.span_from(start, line, col),
                                )
                            })?;
                            match esc {
                                'n' => s.push('\n'),
                                't' => s.push('\t'),
                                'r' => s.push('\r'),
                                '0' => s.push('\0'),
                                '\\' => s.push('\\'),
                                '"' => s.push('"'),
                                other => {
                                    return Err(ParseError::new(
                                        ParseErrorKind::BadStringEscape(other),
                                        self.span_from(start, line, col),
                                    ))
                                }
                            }
                        }
                        Some(other) => s.push(other),
                    }
                }
                TokenKind::Str(s)
            }
            '#' => {
                self.bump();
                match self.peek() {
                    Some('(') => {
                        self.bump();
                        TokenKind::VecOpen
                    }
                    Some(';') => {
                        self.bump();
                        TokenKind::DatumComment
                    }
                    Some('t') | Some('f') => {
                        let b = self.bump() == Some('t');
                        // Reject things like `#true-ish` being read as #t.
                        if self.peek().map(is_symbol_char).unwrap_or(false) {
                            let rest = self.read_symbol_text();
                            return Err(ParseError::new(
                                ParseErrorKind::BadHashSyntax(format!(
                                    "#{}{rest}",
                                    if b { 't' } else { 'f' }
                                )),
                                self.span_from(start, line, col),
                            ));
                        }
                        TokenKind::Bool(b)
                    }
                    Some('\\') => {
                        self.bump();
                        // A character literal: a single char, or a named char.
                        let first = self.bump().ok_or_else(|| {
                            ParseError::new(
                                ParseErrorKind::UnexpectedEof,
                                self.span_from(start, line, col),
                            )
                        })?;
                        let mut name = String::new();
                        name.push(first);
                        if first.is_alphabetic() {
                            while let Some(c) = self.peek() {
                                if is_symbol_char(c) {
                                    name.push(c);
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        let ch = if name.chars().count() == 1 {
                            name.chars().next().expect("one char")
                        } else {
                            match name.as_str() {
                                "space" => ' ',
                                "newline" => '\n',
                                "tab" => '\t',
                                "return" => '\r',
                                "nul" | "null" => '\0',
                                _ => {
                                    return Err(ParseError::new(
                                        ParseErrorKind::BadCharLiteral(name),
                                        self.span_from(start, line, col),
                                    ))
                                }
                            }
                        };
                        TokenKind::Char(ch)
                    }
                    other => {
                        let s = other.map(|c| c.to_string()).unwrap_or_default();
                        return Err(ParseError::new(
                            ParseErrorKind::BadHashSyntax(format!("#{s}")),
                            self.span_from(start, line, col),
                        ));
                    }
                }
            }
            _ => {
                let text = self.read_symbol_text();
                debug_assert!(!text.is_empty(), "symbol text cannot be empty here");
                if text == "." {
                    TokenKind::Dot
                } else if let Some(k) = parse_number(&text) {
                    k.map_err(|k| ParseError::new(k, self.span_from(start, line, col)))?
                } else {
                    TokenKind::Symbol(text)
                }
            }
        };
        Ok(Some(Token {
            kind,
            span: self.span_from(start, line, col),
        }))
    }

    fn read_symbol_text(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if is_symbol_char(c) {
                self.bump();
            } else {
                break;
            }
        }
        self.src[start..self.pos].to_string()
    }
}

/// Attempts to read `text` as an integer literal. Returns `None` if it is not
/// number-shaped (so it becomes a symbol), `Some(Err)` on fixnum overflow.
fn parse_number(text: &str) -> Option<Result<TokenKind, ParseErrorKind>> {
    let body = text.strip_prefix(['-', '+']).unwrap_or(text);
    if body.is_empty() || !body.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    match text.parse::<i64>() {
        Ok(n) => Some(Ok(TokenKind::Fixnum(n))),
        Err(_) => Some(Err(ParseErrorKind::FixnumOverflow(text.to_string()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::new();
        while let Some(t) = lx.next_token().unwrap() {
            out.push(t.kind);
        }
        out
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("(foo 12 -3 #t #f)"),
            vec![
                TokenKind::LParen,
                TokenKind::Symbol("foo".into()),
                TokenKind::Fixnum(12),
                TokenKind::Fixnum(-3),
                TokenKind::Bool(true),
                TokenKind::Bool(false),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn quote_family() {
        assert_eq!(
            kinds("'a `b ,c ,@d"),
            vec![
                TokenKind::Quote,
                TokenKind::Symbol("a".into()),
                TokenKind::Quasiquote,
                TokenKind::Symbol("b".into()),
                TokenKind::Unquote,
                TokenKind::Symbol("c".into()),
                TokenKind::UnquoteSplicing,
                TokenKind::Symbol("d".into()),
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds(r#""a\nb\"c""#),
            vec![TokenKind::Str("a\nb\"c".into())]
        );
    }

    #[test]
    fn bad_escape_is_error() {
        let mut lx = Lexer::new(r#""\q""#);
        let err = lx.next_token().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::BadStringEscape('q'));
    }

    #[test]
    fn char_literals() {
        assert_eq!(
            kinds(r"#\a #\space #\newline #\( #\1"),
            vec![
                TokenKind::Char('a'),
                TokenKind::Char(' '),
                TokenKind::Char('\n'),
                TokenKind::Char('('),
                TokenKind::Char('1'),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("; hi\n 1 #| nested #| deep |# |# 2"),
            vec![TokenKind::Fixnum(1), TokenKind::Fixnum(2)]
        );
    }

    #[test]
    fn datum_comment_token() {
        assert_eq!(
            kinds("#;(a b) 5"),
            vec![
                TokenKind::DatumComment,
                TokenKind::LParen,
                TokenKind::Symbol("a".into()),
                TokenKind::Symbol("b".into()),
                TokenKind::RParen,
                TokenKind::Fixnum(5)
            ]
        );
    }

    #[test]
    fn symbols_with_special_chars() {
        assert_eq!(
            kinds("%word+ set-box! ->fx a.b"),
            vec![
                TokenKind::Symbol("%word+".into()),
                TokenKind::Symbol("set-box!".into()),
                TokenKind::Symbol("->fx".into()),
                TokenKind::Symbol("a.b".into()),
            ]
        );
    }

    #[test]
    fn plus_minus_are_symbols() {
        assert_eq!(
            kinds("+ - -a"),
            vec![
                TokenKind::Symbol("+".into()),
                TokenKind::Symbol("-".into()),
                TokenKind::Symbol("-a".into())
            ]
        );
    }

    #[test]
    fn dot_token() {
        assert_eq!(
            kinds("(a . b)"),
            vec![
                TokenKind::LParen,
                TokenKind::Symbol("a".into()),
                TokenKind::Dot,
                TokenKind::Symbol("b".into()),
                TokenKind::RParen
            ]
        );
    }

    #[test]
    fn fixnum_overflow_reported() {
        let mut lx = Lexer::new("99999999999999999999999");
        let err = lx.next_token().unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::FixnumOverflow(_)));
    }

    #[test]
    fn line_col_tracking() {
        let mut lx = Lexer::new("a\n  bb");
        let t1 = lx.next_token().unwrap().unwrap();
        assert_eq!((t1.span.line, t1.span.col), (1, 1));
        let t2 = lx.next_token().unwrap().unwrap();
        assert_eq!((t2.span.line, t2.span.col), (2, 3));
    }

    #[test]
    fn brackets_as_parens() {
        assert_eq!(
            kinds("[a]"),
            vec![
                TokenKind::LParen,
                TokenKind::Symbol("a".into()),
                TokenKind::RParen
            ]
        );
    }

    #[test]
    fn unterminated_string() {
        let mut lx = Lexer::new("\"abc");
        assert!(matches!(
            lx.next_token().unwrap_err().kind,
            ParseErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn unterminated_block_comment() {
        let mut lx = Lexer::new("#| abc");
        assert!(matches!(
            lx.next_token().unwrap_err().kind,
            ParseErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn hash_true_with_suffix_is_error() {
        let mut lx = Lexer::new("#true");
        assert!(matches!(
            lx.next_token().unwrap_err().kind,
            ParseErrorKind::BadHashSyntax(_)
        ));
    }
}
