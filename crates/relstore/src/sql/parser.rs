//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (informal):
//!
//! ```text
//! statement  := create_table | create_index | drop_table | select | insert
//!             | update | delete | BEGIN | COMMIT | ROLLBACK
//!             | EXPLAIN [ANALYZE] select | ANALYZE [ident]
//! select     := SELECT items FROM ident join* [WHERE expr] [GROUP BY cols]
//!               [ORDER BY key (, key)*] [LIMIT (int | ?)]
//! join       := JOIN ident ON expr
//! expr       := or_expr
//! or_expr    := and_expr (OR and_expr)*
//! and_expr   := not_expr (AND not_expr)*
//! not_expr   := NOT not_expr | cmp_expr
//! cmp_expr   := add_expr [(= | <> | < | <= | > | >=) add_expr
//!             | IS [NOT] NULL
//!             | IN '(' (literal (, literal)* | select) ')']
//! add_expr   := mul_expr ((+|-) mul_expr)*
//! mul_expr   := unary ((*|/) unary)*
//! unary      := - unary | primary
//! primary    := literal | colref | '(' expr ')' | '(' select ')'
//! ```

use crate::error::{Error, Result};
use crate::predicate::{ArithOp, CmpOp, Expr};
use crate::schema::{Column, Schema};
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, Token};
use crate::value::{DataType, Value};

/// Parses a single SQL statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
    };
    let stmt = p.parse_statement()?;
    p.consume_if(&Token::Semicolon);
    if !p.at_end() {
        return Err(Error::parse(format!(
            "unexpected trailing token {}",
            p.peek_desc()
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Number of `?` placeholders seen so far; each gets the next index.
    params: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        self.peek().map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
    }

    fn next(&mut self) -> Result<Token> {
        let tok = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::parse("unexpected end of input"))?;
        self.pos += 1;
        Ok(tok)
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        let got = self.next()?;
        if &got == tok {
            Ok(())
        } else {
            Err(Error::parse(format!("expected {tok}, got {got}")))
        }
    }

    fn consume_if(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        let got = self.next()?;
        if got.is_keyword(kw) {
            Ok(())
        } else {
            Err(Error::parse(format!("expected {kw}, got {got}")))
        }
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_keyword(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_keyword(kw)).unwrap_or(false)
    }

    fn expect_ident(&mut self) -> Result<String> {
        let got = self.next()?;
        match got {
            Token::Ident(s) => Ok(s.to_ascii_lowercase()),
            other => Err(Error::parse(format!("expected identifier, got {other}"))),
        }
    }

    /// A column reference, possibly qualified (`table.column`); the qualifier
    /// is folded into the flat joined-schema column name used by the executor.
    fn expect_column_ref(&mut self) -> Result<String> {
        let first = self.expect_ident()?;
        if self.consume_if(&Token::Dot) {
            let second = self.expect_ident()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        let tok = self
            .peek()
            .cloned()
            .ok_or_else(|| Error::parse("empty statement"))?;
        let kw = tok
            .as_ident()
            .map(|s| s.to_ascii_uppercase())
            .unwrap_or_default();
        match kw.as_str() {
            "CREATE" => self.parse_create(),
            "DROP" => self.parse_drop(),
            "SELECT" => self.parse_select().map(Statement::Select),
            "INSERT" => self.parse_insert().map(Statement::Insert),
            "UPDATE" => self.parse_update().map(Statement::Update),
            "DELETE" => self.parse_delete().map(Statement::Delete),
            "BEGIN" | "START" => {
                self.next()?;
                self.consume_keyword("TRANSACTION");
                self.consume_keyword("WORK");
                Ok(Statement::Begin)
            }
            "COMMIT" => {
                self.next()?;
                self.consume_keyword("WORK");
                Ok(Statement::Commit)
            }
            "ROLLBACK" | "ABORT" => {
                self.next()?;
                self.consume_keyword("WORK");
                Ok(Statement::Rollback)
            }
            "EXPLAIN" => {
                self.next()?;
                let analyze = self.consume_keyword("ANALYZE");
                if !self.peek_keyword("SELECT") {
                    return Err(Error::parse("EXPLAIN supports only SELECT statements"));
                }
                let select = self.parse_select()?;
                Ok(Statement::Explain { analyze, select })
            }
            "ANALYZE" => {
                self.next()?;
                let table = if self.at_end() || self.peek() == Some(&Token::Semicolon) {
                    None
                } else {
                    Some(self.expect_ident()?)
                };
                Ok(Statement::Analyze(table))
            }
            _ => Err(Error::parse(format!("unsupported statement starting with {tok}"))),
        }
    }

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        if self.consume_keyword("TABLE") {
            return self.parse_create_table();
        }
        let unique = self.consume_keyword("UNIQUE");
        if self.consume_keyword("INDEX") {
            // Optional index name is accepted and ignored (names are derived).
            if !self.peek_keyword("ON") {
                let _ = self.expect_ident()?;
            }
            self.expect_keyword("ON")?;
            let table = self.expect_ident()?;
            self.expect(&Token::LParen)?;
            let column = self.expect_ident()?;
            self.expect(&Token::RParen)?;
            return Ok(Statement::CreateIndex {
                table,
                column,
                unique,
            });
        }
        Err(Error::parse("expected TABLE or INDEX after CREATE"))
    }

    fn parse_create_table(&mut self) -> Result<Statement> {
        let name = self.expect_ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = None;
        loop {
            let col_name = self.expect_ident()?;
            let ty = self.parse_data_type()?;
            let mut column = Column::new(col_name.clone(), ty);
            loop {
                if self.consume_keyword("NOT") {
                    self.expect_keyword("NULL")?;
                    column.not_null = true;
                } else if self.consume_keyword("PRIMARY") {
                    self.expect_keyword("KEY")?;
                    primary_key = Some(col_name.clone());
                    column.not_null = true;
                } else {
                    break;
                }
            }
            columns.push(column);
            if self.consume_if(&Token::Comma) {
                continue;
            }
            self.expect(&Token::RParen)?;
            break;
        }
        let mut schema = Schema::new(name, columns);
        if let Some(pk) = primary_key {
            schema = schema.with_primary_key(pk);
        }
        Ok(Statement::CreateTable(schema))
    }

    fn parse_data_type(&mut self) -> Result<DataType> {
        let ident = self.expect_ident()?;
        match ident.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => Ok(DataType::Int),
            "DOUBLE" | "FLOAT" | "REAL" => Ok(DataType::Double),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => {
                // Accept an optional length such as VARCHAR(255) and ignore it.
                if self.consume_if(&Token::LParen) {
                    let _ = self.next()?;
                    self.expect(&Token::RParen)?;
                }
                Ok(DataType::Text)
            }
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "TIMESTAMP" | "DATETIME" => Ok(DataType::Timestamp),
            other => Err(Error::parse(format!("unknown data type {other}"))),
        }
    }

    fn parse_drop(&mut self) -> Result<Statement> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        let name = self.expect_ident()?;
        Ok(Statement::DropTable(name))
    }

    fn parse_select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let table = self.expect_ident()?;
        let mut joins = Vec::new();
        while self.consume_keyword("JOIN") || {
            if self.peek_keyword("INNER") {
                self.pos += 1;
                self.expect_keyword("JOIN")?;
                true
            } else {
                false
            }
        } {
            let join_table = self.expect_ident()?;
            self.expect_keyword("ON")?;
            // A general predicate: the common `a.x = b.y` equality becomes a
            // hash join, anything else a nested-loop join.
            let on = self.parse_expr()?;
            joins.push(JoinClause {
                table: join_table,
                on,
            });
        }
        let filter = if self.consume_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.consume_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expect_column_ref()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.consume_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let column = self.expect_column_ref()?;
                let order = if self.consume_keyword("DESC") {
                    SortOrder::Desc
                } else {
                    self.consume_keyword("ASC");
                    SortOrder::Asc
                };
                order_by.push(OrderKey { column, order });
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.consume_keyword("LIMIT") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(Limit::Count(n as usize)),
                Token::Param => {
                    let idx = self.params;
                    self.params += 1;
                    Some(Limit::Param(idx))
                }
                other => return Err(Error::parse(format!("expected LIMIT count, got {other}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            table,
            joins,
            filter,
            group_by,
            order_by,
            limit,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.consume_if(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate function?
        if let Some(Token::Ident(name)) = self.peek() {
            let func = match name.to_ascii_uppercase().as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "AVG" => Some(AggFunc::Avg),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(func) = func {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2; // consume name and '('
                    let column = if self.consume_if(&Token::Star) {
                        None
                    } else {
                        Some(self.expect_column_ref()?)
                    };
                    self.expect(&Token::RParen)?;
                    let alias = self.parse_alias()?;
                    return Ok(SelectItem::Aggregate {
                        func,
                        column,
                        alias,
                    });
                }
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_alias(&mut self) -> Result<Option<String>> {
        if self.consume_keyword("AS") {
            Ok(Some(self.expect_ident()?))
        } else {
            Ok(None)
        }
    }

    fn parse_insert(&mut self) -> Result<InsertStmt> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.expect_ident()?;
        let mut columns = Vec::new();
        if self.consume_if(&Token::LParen) {
            loop {
                columns.push(self.expect_ident()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        Ok(InsertStmt {
            table,
            columns,
            rows,
        })
    }

    fn parse_update(&mut self) -> Result<UpdateStmt> {
        self.expect_keyword("UPDATE")?;
        let table = self.expect_ident()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.expect_ident()?;
            self.expect(&Token::Eq)?;
            let expr = self.parse_expr()?;
            assignments.push((column, expr));
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        let filter = if self.consume_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(UpdateStmt {
            table,
            assignments,
            filter,
        })
    }

    fn parse_delete(&mut self) -> Result<DeleteStmt> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.expect_ident()?;
        let filter = if self.consume_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(DeleteStmt { table, filter })
    }

    // --- expression parsing -------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.consume_keyword("OR") {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.consume_keyword("AND") {
            let right = self.parse_not()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.consume_keyword("NOT") {
            let inner = self.parse_not()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_cmp()
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let left = self.parse_add()?;
        if self.consume_keyword("IS") {
            let negated = self.consume_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(if negated {
                Expr::IsNotNull(Box::new(left))
            } else {
                Expr::IsNull(Box::new(left))
            });
        }
        if self.consume_keyword("BETWEEN") {
            // `a BETWEEN lo AND hi` desugars to `a >= lo AND a <= hi`; the
            // bounds parse at additive precedence so the `AND` belongs to the
            // BETWEEN, not to an enclosing conjunction.
            let lo = self.parse_add()?;
            self.expect_keyword("AND")?;
            let hi = self.parse_add()?;
            return Ok(Expr::And(
                Box::new(Expr::Cmp(CmpOp::Ge, Box::new(left.clone()), Box::new(lo))),
                Box::new(Expr::Cmp(CmpOp::Le, Box::new(left), Box::new(hi))),
            ));
        }
        if self.consume_keyword("IN") {
            self.expect(&Token::LParen)?;
            if self.peek_keyword("SELECT") {
                let sel = self.parse_select()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::InSubquery(Box::new(left), Box::new(sel)));
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_literal_value()?);
                if !self.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList(Box::new(left), list));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_add()?;
            return Ok(Expr::Cmp(op, Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => Some(ArithOp::Add),
                Some(Token::Minus) => Some(ArithOp::Sub),
                _ => None,
            };
            let Some(op) = op else { break };
            self.pos += 1;
            let right = self.parse_mul()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => Some(ArithOp::Mul),
                Some(Token::Slash) => Some(ArithOp::Div),
                _ => None,
            };
            let Some(op) = op else { break };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.consume_if(&Token::Minus) {
            let inner = self.parse_unary()?;
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Double(d)) => Expr::Literal(Value::Double(-d)),
                other => Expr::Arith(
                    ArithOp::Sub,
                    Box::new(Expr::Literal(Value::Int(0))),
                    Box::new(other),
                ),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let tok = self.next()?;
        match tok {
            Token::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            Token::Float(x) => Ok(Expr::Literal(Value::Double(x))),
            Token::Str(s) => Ok(Expr::Literal(Value::Text(s.into()))),
            Token::Param => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            Token::LParen => {
                if self.peek_keyword("SELECT") {
                    let sel = self.parse_select()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(sel)));
                }
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Token::Ident(name) => {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => Ok(Expr::Literal(Value::Null)),
                    "TRUE" => Ok(Expr::Literal(Value::Bool(true))),
                    "FALSE" => Ok(Expr::Literal(Value::Bool(false))),
                    _ => {
                        let mut col = name.to_ascii_lowercase();
                        if self.consume_if(&Token::Dot) {
                            let second = self.expect_ident()?;
                            col = format!("{col}.{second}");
                        }
                        Ok(Expr::Column(col))
                    }
                }
            }
            other => Err(Error::parse(format!("unexpected token {other} in expression"))),
        }
    }

    fn parse_literal_value(&mut self) -> Result<Value> {
        let expr = self.parse_unary()?;
        match expr {
            Expr::Literal(v) => Ok(v),
            other => Err(Error::parse(format!("expected literal, got {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a semicolon-separated script into a list of statements.
    fn parse_script(sql: &str) -> Result<Vec<Statement>> {
        let mut out = Vec::new();
        for piece in sql.split(';') {
            if piece.trim().is_empty() {
                continue;
            }
            out.push(parse(piece)?);
        }
        Ok(out)
    }

    #[test]
    fn parses_create_table_with_constraints() {
        let stmt = parse(
            "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner VARCHAR(64) NOT NULL, \
             runtime DOUBLE, submitted TIMESTAMP, done BOOLEAN)",
        )
        .unwrap();
        let Statement::CreateTable(schema) = stmt else {
            panic!("expected CreateTable");
        };
        assert_eq!(schema.name, "jobs");
        assert_eq!(schema.arity(), 5);
        assert_eq!(schema.primary_key.as_deref(), Some("job_id"));
        assert!(schema.column("owner").unwrap().not_null);
        assert_eq!(schema.column("runtime").unwrap().ty, DataType::Double);
        assert_eq!(schema.column("submitted").unwrap().ty, DataType::Timestamp);
    }

    #[test]
    fn parses_create_index() {
        let stmt = parse("CREATE UNIQUE INDEX idx_name ON machines (name)").unwrap();
        assert_eq!(
            stmt,
            Statement::CreateIndex {
                table: "machines".into(),
                column: "name".into(),
                unique: true
            }
        );
        let stmt = parse("CREATE INDEX ON jobs (state)").unwrap();
        assert!(matches!(stmt, Statement::CreateIndex { unique: false, .. }));
    }

    #[test]
    fn parses_select_with_all_clauses() {
        let stmt = parse(
            "SELECT job_id, owner AS submitter FROM jobs WHERE state = 'idle' AND priority >= 5 \
             ORDER BY priority DESC, job_id LIMIT 10",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected Select");
        };
        assert_eq!(sel.items.len(), 2);
        assert_eq!(sel.table, "jobs");
        assert!(sel.filter.is_some());
        assert_eq!(sel.order_by.len(), 2);
        assert_eq!(sel.order_by[0].order, SortOrder::Desc);
        assert_eq!(sel.limit, Some(Limit::Count(10)));
    }

    #[test]
    fn parses_join_and_aggregates() {
        let stmt = parse(
            "SELECT COUNT(*), AVG(jobs.runtime) AS mean_rt FROM jobs \
             JOIN matches ON jobs.job_id = matches.job_id WHERE matches.state = 'claimed' \
             GROUP BY jobs.owner",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected Select");
        };
        assert_eq!(sel.joins.len(), 1);
        assert_eq!(sel.joins[0].table, "matches");
        assert_eq!(
            sel.joins[0].equi_columns(),
            Some(("jobs.job_id", "matches.job_id"))
        );
        assert_eq!(sel.group_by, vec!["jobs.owner".to_string()]);
        assert!(matches!(
            sel.items[0],
            SelectItem::Aggregate {
                func: AggFunc::Count,
                column: None,
                ..
            }
        ));
        assert!(matches!(
            &sel.items[1],
            SelectItem::Aggregate {
                func: AggFunc::Avg,
                column: Some(c),
                alias: Some(a)
            } if c == "jobs.runtime" && a == "mean_rt"
        ));
    }

    #[test]
    fn parses_insert_update_delete() {
        let stmt = parse(
            "INSERT INTO jobs (job_id, owner, state) VALUES (1, 'alice', 'idle'), (2, 'bob', 'idle')",
        )
        .unwrap();
        let Statement::Insert(ins) = stmt else {
            panic!("expected Insert");
        };
        assert_eq!(ins.columns, vec!["job_id", "owner", "state"]);
        assert_eq!(ins.rows.len(), 2);

        let stmt = parse("UPDATE machines SET state = 'busy', load = load + 0.5 WHERE machine_id = 7")
            .unwrap();
        let Statement::Update(upd) = stmt else {
            panic!("expected Update");
        };
        assert_eq!(upd.assignments.len(), 2);
        assert!(upd.filter.is_some());

        let stmt = parse("DELETE FROM matches WHERE job_id = 3").unwrap();
        assert!(matches!(stmt, Statement::Delete(_)));
    }

    #[test]
    fn parses_transaction_control() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("BEGIN TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn parses_null_handling_and_in_lists() {
        let stmt = parse("SELECT * FROM jobs WHERE finished IS NOT NULL AND state IN ('idle', 'held')")
            .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected Select");
        };
        let filter = sel.filter.unwrap();
        let shown = filter.to_string();
        assert!(shown.contains("IS NOT NULL"));
        assert!(shown.contains("IN ('idle', 'held')"));
    }

    #[test]
    fn negative_numbers_and_arithmetic() {
        let stmt = parse("SELECT runtime * 2 + 1 FROM jobs WHERE priority = -3").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected Select");
        };
        assert!(sel.filter.unwrap().to_string().contains("-3"));
    }

    #[test]
    fn parses_bind_parameters_in_order() {
        let stmt = parse("SELECT * FROM jobs WHERE state = ? AND job_id > ?").unwrap();
        assert_eq!(stmt.param_count(), 2);
        let Statement::Select(sel) = &stmt else {
            panic!("expected Select");
        };
        assert_eq!(sel.filter.as_ref().unwrap().to_string(), "((state = ?) AND (job_id > ?))");

        let stmt = parse("INSERT INTO jobs (job_id, owner) VALUES (?, ?), (?, ?)").unwrap();
        assert_eq!(stmt.param_count(), 4);
        let stmt = parse("UPDATE jobs SET state = ?, runtime = runtime + ? WHERE job_id = ?").unwrap();
        assert_eq!(stmt.param_count(), 3);
        let stmt = parse("DELETE FROM jobs WHERE owner = ?").unwrap();
        assert_eq!(stmt.param_count(), 1);
        assert_eq!(parse("SELECT * FROM jobs").unwrap().param_count(), 0);
    }

    #[test]
    fn parses_between_as_inclusive_range() {
        let stmt = parse("SELECT * FROM jobs WHERE runtime BETWEEN 10 AND 20 AND state = 'idle'")
            .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected Select");
        };
        let shown = sel.filter.unwrap().to_string();
        assert_eq!(
            shown,
            "(((runtime >= 10) AND (runtime <= 20)) AND (state = 'idle'))"
        );
    }

    #[test]
    fn parses_non_equi_and_compound_join_predicates() {
        let stmt = parse(
            "SELECT * FROM jobs JOIN machines ON jobs.req_mem <= machines.mem \
             AND machines.state = 'idle'",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected Select");
        };
        assert_eq!(sel.joins.len(), 1);
        // A compound predicate is not a single equality, so no hash-join key.
        assert_eq!(sel.joins[0].equi_columns(), None);
        assert!(sel.joins[0].on.to_string().contains("<="));
        assert!(sel.filter.is_none());
    }

    #[test]
    fn parses_explain_and_analyze() {
        let stmt = parse("EXPLAIN SELECT * FROM jobs WHERE job_id = 1").unwrap();
        assert!(matches!(stmt, Statement::Explain { analyze: false, .. }));
        assert!(stmt.is_read_only());
        let stmt = parse("EXPLAIN ANALYZE SELECT * FROM jobs").unwrap();
        assert!(matches!(stmt, Statement::Explain { analyze: true, .. }));

        assert_eq!(parse("ANALYZE").unwrap(), Statement::Analyze(None));
        assert_eq!(parse("ANALYZE jobs;").unwrap(), Statement::Analyze(Some("jobs".into())));
        // Only SELECT can be explained.
        assert!(parse("EXPLAIN DELETE FROM jobs").is_err());
    }

    #[test]
    fn parses_subqueries_in_where() {
        let stmt = parse(
            "SELECT * FROM jobs WHERE owner IN (SELECT name FROM users WHERE quota > 0)",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected Select");
        };
        let filter = sel.filter.unwrap();
        assert!(filter.contains_subquery());
        let Expr::InSubquery(lhs, sub) = filter else {
            panic!("expected InSubquery, got {filter:?}");
        };
        assert_eq!(*lhs, Expr::Column("owner".into()));
        assert_eq!(sub.table, "users");

        let stmt = parse(
            "SELECT * FROM jobs WHERE priority > (SELECT AVG(priority) FROM jobs)",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected Select");
        };
        let filter = sel.filter.unwrap();
        assert!(filter.contains_subquery());
        assert!(filter.to_string().contains("SELECT"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("SELECT FROM jobs").is_err());
        assert!(parse("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse("INSERT INTO t VALUES").is_err());
        assert!(parse("SELECT * FROM t WHERE a = ").is_err());
        assert!(parse("SELECT * FROM t LIMIT x").is_err());
        assert!(parse("TRUNCATE t").is_err());
        assert!(parse("SELECT * FROM t extra junk").is_err());
    }

    #[test]
    fn limit_placeholder_takes_the_next_parameter_slot() {
        let Statement::Select(sel) =
            parse("SELECT job_id FROM jobs WHERE state = ? ORDER BY job_id LIMIT ?").unwrap()
        else {
            panic!("expected Select");
        };
        assert_eq!(sel.limit, Some(Limit::Param(1)));
        assert_eq!(sel.param_count(), 2);
        let idle = Value::Text("idle".into());
        assert_eq!(sel.limit_with(&[idle.clone(), Value::Int(7)]).unwrap(), Some(7));
        assert_eq!(sel.limit_with(&[idle.clone(), Value::Int(0)]).unwrap(), Some(0));

        // Hostile bindings are type errors, never a panic or a wrapped count.
        for bad in [
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Double(2.5),
            Value::Text("3".into()),
            Value::Bool(true),
            Value::Timestamp(3),
            Value::Null,
        ] {
            let err = sel.limit_with(&[idle.clone(), bad.clone()]);
            assert!(matches!(err, Err(Error::Type(_))), "{bad}: {err:?}");
        }
        let missing = sel.limit_with(std::slice::from_ref(&idle));
        assert!(matches!(missing, Err(Error::Type(_))), "{missing:?}");

        // In the text itself only a non-negative integer or `?` parses.
        for bad in ["LIMIT -1", "LIMIT 2.5", "LIMIT NULL", "LIMIT 'x'", "LIMIT", "LIMIT ? ?"] {
            assert!(parse(&format!("SELECT * FROM t {bad}")).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_script_splits_statements() {
        let stmts = parse_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }
}
