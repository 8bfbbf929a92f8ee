//! Tokeniser for the SQL subset.
//!
//! The lexer walks the text's bytes and borrows identifiers and strings
//! from it: only a string literal with a `''` escape is copied. A byte
//! that is not ASCII is inside a string literal or a comment, Unicode
//! whitespace, or an error.

use crate::error::{Error, Result};
use std::borrow::Cow;
use std::fmt;

/// A single SQL token, borrowing from the text it was lexed from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token<'a> {
    /// A keyword or bare identifier, as written.
    Ident(&'a str),
    /// An integer literal's magnitude: a leading `-` is its own token, so
    /// `-9223372036854775808` lexes as `Minus`, `Int(2^63)` and the parser
    /// folds the two into `i64::MIN`.
    Int(u64),
    /// A floating-point literal.
    Float(f64),
    /// A single-quoted string literal (quotes removed, `''` unescaped).
    Str(Cow<'a, str>),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `;`.
    Semicolon,
    /// `*`.
    Star,
    /// `.`.
    Dot,
    /// `=`.
    Eq,
    /// `<>` or `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `/`.
    Slash,
    /// `?` — a positional bind-parameter placeholder.
    Param,
}

impl Token<'_> {
    /// Returns the identifier text if this token is an identifier/keyword.
    pub(crate) fn as_ident(&self) -> Option<&str> {
        match self {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is the given keyword (case-insensitive).
    pub(crate) fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Star => write!(f, "*"),
            Token::Dot => write!(f, "."),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Param => write!(f, "?"),
        }
    }
}

/// Tokenises `input` into a vector of tokens.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(input);
    let mut tokens = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        tokens.push(tok);
    }
    Ok(tokens)
}

/// A cursor over SQL text yielding one token at a time, with the byte
/// span of the token last returned ([`Lexer::span`]).
pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    start: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0, start: 0 }
    }

    /// The byte range of the token [`Lexer::next_token`] returned last.
    pub(crate) fn span(&self) -> std::ops::Range<usize> {
        self.start..self.pos
    }

    /// The next token, or `None` at the end of the text.
    pub(crate) fn next_token(&mut self) -> Result<Option<Token<'a>>> {
        let bytes = self.src.as_bytes();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(None);
            };
            self.start = self.pos;
            let next = bytes.get(self.pos + 1).copied();
            let (tok, len) = match b {
                b' ' | b'\t' | b'\n' | b'\r' | b'\x0b' | b'\x0c' => {
                    self.pos += 1;
                    continue;
                }
                b'-' if next == Some(b'-') => {
                    // `--` starts a comment that runs to end of line.
                    self.pos = self.src[self.pos..].find('\n').map_or(bytes.len(), |n| self.pos + n);
                    continue;
                }
                b'(' => (Token::LParen, 1),
                b')' => (Token::RParen, 1),
                b',' => (Token::Comma, 1),
                b';' => (Token::Semicolon, 1),
                b'*' => (Token::Star, 1),
                b'.' => (Token::Dot, 1),
                b'=' => (Token::Eq, 1),
                b'+' => (Token::Plus, 1),
                b'/' => (Token::Slash, 1),
                b'?' => (Token::Param, 1),
                b'-' => (Token::Minus, 1),
                b'!' if next == Some(b'=') => (Token::Ne, 2),
                b'!' => return Err(Error::parse("unexpected '!'")),
                b'<' if next == Some(b'=') => (Token::Le, 2),
                b'<' if next == Some(b'>') => (Token::Ne, 2),
                b'<' => (Token::Lt, 1),
                b'>' if next == Some(b'=') => (Token::Ge, 2),
                b'>' => (Token::Gt, 1),
                b'\'' => return self.string().map(Some),
                b'0'..=b'9' => return self.number().map(Some),
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let len = bytes[self.pos..]
                        .iter()
                        .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
                        .unwrap_or(bytes.len() - self.pos);
                    (Token::Ident(&self.src[self.pos..self.pos + len]), len)
                }
                _ => {
                    let c = self.src[self.pos..].chars().next().expect("not at the end");
                    if c.is_whitespace() {
                        self.pos += c.len_utf8();
                        continue;
                    }
                    return Err(Error::parse(format!("unexpected character '{c}'")));
                }
            };
            self.pos += len;
            return Ok(Some(tok));
        }
    }

    /// A string literal with `''` as the escape for a single quote; `pos`
    /// is at the opening quote.
    fn string(&mut self) -> Result<Token<'a>> {
        let bytes = self.src.as_bytes();
        let body = self.pos + 1;
        let mut i = body;
        let mut escaped = false;
        loop {
            match bytes[i..].iter().position(|&b| b == b'\'') {
                None => return Err(Error::parse("unterminated string literal")),
                Some(n) if bytes.get(i + n + 1) == Some(&b'\'') => {
                    escaped = true;
                    i += n + 2;
                }
                Some(n) => {
                    i += n;
                    break;
                }
            }
        }
        let raw = &self.src[body..i];
        self.pos = i + 1;
        Ok(Token::Str(if escaped {
            Cow::Owned(raw.replace("''", "'"))
        } else {
            Cow::Borrowed(raw)
        }))
    }

    /// A numeric literal; `pos` is at its first digit.
    fn number(&mut self) -> Result<Token<'a>> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut i = start;
        let mut is_float = false;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
            if bytes[i] == b'.' {
                // A second dot ends the number (e.g. ranges are not supported).
                if is_float {
                    break;
                }
                // A dot not followed by a digit is a separate token.
                if !bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    break;
                }
                is_float = true;
            }
            i += 1;
        }
        // An exponent (`1e308`, `2.5E-3`) makes the literal a float; an `e`
        // not followed by digits is a separate token.
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            let mut j = i + 1;
            if matches!(bytes.get(j), Some(b'+' | b'-')) {
                j += 1;
            }
            if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                while bytes.get(j).is_some_and(u8::is_ascii_digit) {
                    j += 1;
                }
                i = j;
                is_float = true;
            }
        }
        let text = &self.src[start..i];
        self.pos = i;
        if is_float {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .map(Token::Float)
                .ok_or_else(|| Error::parse(format!("bad float literal {text}")))
        } else {
            text.parse::<u64>()
                .map(Token::Int)
                .map_err(|_| Error::parse(format!("bad integer literal {text}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_select() {
        let toks = tokenize("SELECT * FROM jobs WHERE state = 'idle' AND job_id >= 10;").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT"));
        assert_eq!(toks[1], Token::Star);
        assert!(toks.contains(&Token::Str("idle".into())));
        assert!(toks.contains(&Token::Ge));
        assert_eq!(*toks.last().unwrap(), Token::Semicolon);
    }

    #[test]
    fn tokenizes_numbers() {
        let toks = tokenize("1 2.5 -3 10.0").unwrap();
        assert_eq!(toks[0], Token::Int(1));
        assert_eq!(toks[1], Token::Float(2.5));
        assert_eq!(toks[2], Token::Minus);
        assert_eq!(toks[3], Token::Int(3));
        assert_eq!(toks[4], Token::Float(10.0));
        let toks = tokenize("1e308 2.5E-3 9223372036854775808 3e x").unwrap();
        assert_eq!(toks[0], Token::Float(1e308));
        assert_eq!(toks[1], Token::Float(2.5e-3));
        assert_eq!(toks[2], Token::Int(1 << 63));
        assert_eq!(toks[3], Token::Int(3));
        assert_eq!(toks[4], Token::Ident("e"));
        assert!(tokenize("1e309").is_err(), "an infinite literal is refused");
    }

    #[test]
    fn string_escape_and_errors() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks[0], Token::Str("it's".into()));
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn bind_parameter_placeholders() {
        let toks = tokenize("SELECT * FROM jobs WHERE job_id = ? AND state = ?").unwrap();
        assert_eq!(toks.iter().filter(|t| **t == Token::Param).count(), 2);
        assert_eq!(Token::Param.to_string(), "?");
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT"),
                Token::Int(1),
                Token::Comma,
                Token::Int(2)
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("a <= b >= c <> d != e < f > g").unwrap();
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::Ge));
        assert_eq!(toks.iter().filter(|t| **t == Token::Ne).count(), 2);
        assert!(toks.contains(&Token::Lt));
        assert!(toks.contains(&Token::Gt));
    }

    #[test]
    fn keyword_helper() {
        let toks = tokenize("select").unwrap();
        assert!(toks[0].is_keyword("SELECT"));
        assert!(toks[0].is_keyword("select"));
        assert!(!toks[0].is_keyword("FROM"));
    }

    #[test]
    fn qualified_names() {
        let toks = tokenize("jobs.job_id").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("jobs"),
                Token::Dot,
                Token::Ident("job_id")
            ]
        );
    }
}
