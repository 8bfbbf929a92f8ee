//! The SQL front-end: lexer, AST and parser for the supported subset.
//!
//! The subset covers what the CondorJ2 application server needs to express
//! every service call as SQL: `CREATE TABLE` / `CREATE INDEX` / `DROP TABLE`,
//! `INSERT`, single-table `UPDATE` and `DELETE`, and `SELECT` with inner
//! joins, `WHERE`, `GROUP BY` + aggregates, `ORDER BY` and `LIMIT`, plus
//! `BEGIN` / `COMMIT` / `ROLLBACK`.

pub mod ast;
pub(crate) mod lexer;
pub(crate) mod parser;
pub(crate) mod shape;

pub use ast::Statement;
pub use parser::parse;
