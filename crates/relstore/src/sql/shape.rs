//! Statement shapes: the key the statement cache files an ad-hoc text under.
//!
//! The shape of a SELECT, INSERT, UPDATE or DELETE written without a `?`
//! of its own is its text with every *lifted* literal replaced by `?`. A
//! lifted literal is an INT (within range), DOUBLE or string token that
//! does not follow a `-`; a negative number, an over-range integer, every
//! literal of a text the caller parameterised, and every literal of any
//! other statement (DDL, EXPLAIN, transaction control) stay in the text.
//! So `SELECT owner FROM jobs WHERE job_id = 42` has the shape
//! `SELECT owner FROM jobs WHERE job_id = ?` and lifts `42`, every point
//! select of that form shares one parse, one plan cell and one profile,
//! and a shaped handle's lifted values are its whole binding.
//!
//! The cache key spells each lifted `?` with the kind of its literal, so
//! `LIMIT 10` and `LIMIT 'a'` — one a count, the other a parse error — are
//! different keys. The key and the lifted values come from one pass of the
//! lexer; a shape miss lexes the text again for the tokens it parses, as
//! written and as its shape.

use crate::error::Result;
use crate::sql::lexer::{Lexer, Token};
use crate::value::Value;
use std::fmt::Write;

/// Marks a lifted literal in a [`Shape`] key, followed by the literal's
/// kind: `i` INT, `d` DOUBLE, `s` string. A valid statement text has no NUL
/// outside a string or a comment.
const LIFTED: char = '\0';

/// An ad-hoc text's shape: its cache key and the literals lifted out of it.
#[derive(Debug)]
pub(crate) struct Shape {
    key: String,
    values: Vec<Value>,
}

impl Shape {
    /// The shape of `sql`, or `None` when nothing in it is lifted (the text
    /// is its own shape). Fails with the lexer's error on text that does
    /// not lex, the error parsing it would report.
    pub(crate) fn of(sql: &str) -> Result<Option<Shape>> {
        let mut key = String::with_capacity(sql.len() + 8);
        let mut values = Vec::new();
        let mut copied = 0;
        let liftable = scan(sql, |tok, span, lifted| {
            if !lifted {
                return;
            }
            let (kind, value) = match tok {
                Token::Int(n) => ('i', Value::Int(n as i64)),
                Token::Float(x) => ('d', Value::Double(x)),
                Token::Str(s) => ('s', Value::Text(s.into())),
                _ => unreachable!("only literals are lifted"),
            };
            key.push_str(&sql[copied..span.start]);
            key.push(LIFTED);
            key.push(kind);
            copied = span.end;
            values.push(value);
        })?;
        if !liftable || values.is_empty() {
            return Ok(None);
        }
        key.push_str(&sql[copied..]);
        Ok(Some(Shape { key, values }))
    }

    /// The statement-cache key: the shape with each lifted `?` spelt with
    /// its literal's kind.
    pub(crate) fn key(&self) -> &str {
        &self.key
    }

    /// The lifted literals, in text order.
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    pub(crate) fn into_values(self) -> Vec<Value> {
        self.values
    }
}

/// What a shape miss parses: the tokens of a text as written and as its
/// shape, and the shape as SQL text.
#[derive(Debug)]
pub(crate) struct Lexed<'a> {
    /// The text's tokens.
    pub(crate) text: Vec<Token<'a>>,
    /// The same tokens with every lifted literal a [`Token::Param`].
    pub(crate) shape: Vec<Token<'a>>,
    /// The text with every lifted literal a `?`.
    pub(crate) sql: String,
}

impl<'a> Lexed<'a> {
    /// Lexes a text [`Shape::of`] found a shape for.
    pub(crate) fn of(sql: &'a str) -> Result<Lexed<'a>> {
        let mut lexed = Lexed {
            text: Vec::new(),
            shape: Vec::new(),
            sql: String::with_capacity(sql.len()),
        };
        let mut copied = 0;
        scan(sql, |tok, span, lifted| {
            if lifted {
                lexed.sql.push_str(&sql[copied..span.start]);
                lexed.sql.push('?');
                copied = span.end;
            }
            lexed.shape.push(if lifted { Token::Param } else { tok.clone() });
            lexed.text.push(tok);
        })?;
        lexed.sql.push_str(&sql[copied..]);
        Ok(lexed)
    }
}

/// A shape's text with its slots filled: each `?` becomes the SQL spelling
/// of the next of `values`. For a statement that ran through its shape this
/// is the text as written, up to how a literal is spelt (`2.50` reads
/// `2.5`): the text the slow-query log shows.
pub(crate) fn fill(shape: &str, values: &[Value]) -> String {
    let mut out = String::with_capacity(shape.len() + 8 * values.len());
    let mut values = values.iter();
    let mut copied = 0;
    let mut lexer = Lexer::new(shape);
    // The shape lexed when it was cached, and its only `?`s are its slots.
    while let Ok(Some(tok)) = lexer.next_token() {
        if tok != Token::Param {
            continue;
        }
        let Some(value) = values.next() else {
            break;
        };
        let span = lexer.span();
        out.push_str(&shape[copied..span.start]);
        copied = span.end;
        match value {
            Value::Double(x) => write!(out, "{x:?}"),
            Value::Text(s) => write!(out, "'{}'", s.replace('\'', "''")),
            other => write!(out, "{other}"),
        }
        .expect("a String takes every write");
    }
    out.push_str(&shape[copied..]);
    out
}

/// Lexes `sql`, handing each token, its byte span and whether it is lifted
/// to `each`. Returns false, having stopped, at the first token that rules
/// lifting out: a first token other than SELECT, INSERT, UPDATE or DELETE,
/// or a `?` of the caller's.
fn scan<'a>(
    sql: &'a str,
    mut each: impl FnMut(Token<'a>, std::ops::Range<usize>, bool),
) -> Result<bool> {
    let mut lexer = Lexer::new(sql);
    let mut first = true;
    let mut after_minus = false;
    while let Some(tok) = lexer.next_token()? {
        let dml = || ["SELECT", "INSERT", "UPDATE", "DELETE"].iter().any(|kw| tok.is_keyword(kw));
        if tok == Token::Param || first && !dml() {
            return Ok(false);
        }
        first = false;
        let lifted = !after_minus
            && match tok {
                Token::Int(n) => i64::try_from(n).is_ok(),
                Token::Float(_) | Token::Str(_) => true,
                _ => false,
            };
        after_minus = tok == Token::Minus;
        each(tok, lexer.span(), lifted);
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sql: &str) -> Option<String> {
        Shape::of(sql).unwrap().map(|s| s.key().replace(LIFTED, "#"))
    }

    #[test]
    fn literals_become_kinded_slots() {
        let shape = Shape::of("SELECT a FROM t WHERE b = 5 AND c = 'it''s' OR d > 2.5").unwrap().unwrap();
        assert_eq!(shape.key(), "SELECT a FROM t WHERE b = \0i AND c = \0s OR d > \0d");
        assert_eq!(
            shape.values(),
            &[Value::Int(5), Value::Text("it's".into()), Value::Double(2.5)]
        );
    }

    #[test]
    fn what_is_not_lifted() {
        // Literal-free texts, DDL, EXPLAIN and transaction control.
        assert_eq!(key("SELECT a FROM t WHERE b = ?"), None);
        assert_eq!(key("CREATE TABLE t (a VARCHAR(10))"), None);
        assert_eq!(key("EXPLAIN SELECT a FROM t WHERE b = 5"), None);
        assert_eq!(key("BEGIN"), None);
        // A literal after `-`, and an integer past INT's range.
        assert_eq!(key("SELECT a FROM t WHERE b = -5 OR c = x -5 OR d = - 0.0"), None);
        assert_eq!(key("SELECT a FROM t WHERE b = -9223372036854775808"), None);
        assert_eq!(key("SELECT a FROM t WHERE b = 9223372036854775808"), None);
        // Digits inside identifiers, and `?` inside a string or a comment.
        assert_eq!(key("SELECT t1.c2 FROM user01 -- 5 ?"), None);
        assert_eq!(key("select x from t where s = '?'").as_deref(), Some("select x from t where s = #s"));
    }

    #[test]
    fn the_literals_of_a_parameterised_text_stay() {
        assert_eq!(key("SELECT a FROM t WHERE b = ? AND c = 5"), None);
        assert_eq!(key("INSERT INTO jobs VALUES (?, 'idle')"), None);
        assert_ne!(key("SELECT a FROM t LIMIT 10"), key("SELECT a FROM t LIMIT 'a'"));
        assert_ne!(key("SELECT a FROM t WHERE b IN (1, 2)"), key("SELECT a FROM t WHERE b IN (1, 2, 3)"));
    }

    #[test]
    fn tokens_mark_the_lifted_literals() {
        let lexed = Lexed::of("UPDATE t SET a = 'x' WHERE b = 5 -- '\0s' ?").unwrap();
        assert_eq!(lexed.text[5], Token::Str("x".into()));
        assert_eq!(lexed.shape[5], Token::Param);
        assert_eq!(lexed.text[9], Token::Int(5));
        assert_eq!(lexed.shape[9], Token::Param);
        assert_eq!(lexed.sql, "UPDATE t SET a = ? WHERE b = ? -- '\0s' ?");
        assert!(Shape::of("SELECT 'open").is_err());
    }

    #[test]
    fn filling_a_shape_spells_its_literals_back() {
        let sql = "SELECT a FROM t WHERE b = 5 AND c = 'it''s?' AND d > 2.0 -- ?";
        let shape = Shape::of(sql).unwrap().unwrap();
        let lexed = Lexed::of(sql).unwrap();
        assert_eq!(fill(&lexed.sql, shape.values()), sql);
        assert_eq!(fill("SELECT a FROM t WHERE b = ?", &[Value::Double(1e300)]), "SELECT a FROM t WHERE b = 1e300");
    }
}
