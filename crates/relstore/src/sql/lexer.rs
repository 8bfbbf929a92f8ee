//! Tokeniser for the SQL subset.

use crate::error::{Error, Result};
use std::fmt;

/// A single SQL token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// A keyword or bare identifier (stored upper-case for keywords matching).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A floating-point literal.
    Float(f64),
    /// A single-quoted string literal (quotes removed, `''` unescaped).
    Str(String),
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

impl Token {
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

impl fmt::Display for Token {
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
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '?' => {
                tokens.push(Token::Param);
                i += 1;
            }
            '-' => {
                // `--` starts a comment that runs to end of line.
                if i + 1 < chars.len() && chars[i + 1] == '-' {
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < chars.len() && chars[i + 1] == '=' {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(Error::parse("unexpected '!'"));
                }
            }
            '<' => {
                if i + 1 < chars.len() && chars[i + 1] == '=' {
                    tokens.push(Token::Le);
                    i += 2;
                } else if i + 1 < chars.len() && chars[i + 1] == '>' {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < chars.len() && chars[i + 1] == '=' {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                // String literal with '' as the escape for a single quote.
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= chars.len() {
                        return Err(Error::parse("unterminated string literal"));
                    }
                    if chars[i] == '\'' {
                        if i + 1 < chars.len() && chars[i + 1] == '\'' {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    s.push(chars[i]);
                    i += 1;
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    if chars[i] == '.' {
                        // A second dot ends the number (e.g. ranges are not supported).
                        if is_float {
                            break;
                        }
                        // A dot not followed by a digit is a separate token.
                        if i + 1 >= chars.len() || !chars[i + 1].is_ascii_digit() {
                            break;
                        }
                        is_float = true;
                    }
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if is_float {
                    let v = text
                        .parse::<f64>()
                        .map_err(|_| Error::parse(format!("bad float literal {text}")))?;
                    tokens.push(Token::Float(v));
                } else {
                    let v = text
                        .parse::<i64>()
                        .map_err(|_| Error::parse(format!("bad integer literal {text}")))?;
                    tokens.push(Token::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                tokens.push(Token::Ident(text));
            }
            other => {
                return Err(Error::parse(format!("unexpected character '{other}'")));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_select() {
        let toks = tokenize("SELECT * FROM jobs WHERE state = 'idle' AND job_id >= 10;").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
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
                Token::Ident("SELECT".into()),
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
                Token::Ident("jobs".into()),
                Token::Dot,
                Token::Ident("job_id".into())
            ]
        );
    }
}
