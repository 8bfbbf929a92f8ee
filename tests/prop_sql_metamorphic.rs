//! Ternary Logic Partitioning (Rigger & Su, OOPSLA 2020) over the WHERE
//! clause. For any predicate `p`, every row makes `p` exactly one of TRUE,
//! FALSE or NULL, so `… WHERE p`, `… WHERE NOT (p)` and `… WHERE (p) IS
//! NULL` partition the table: their rows together are the table's, and
//! `COUNT` / `SUM` / `MIN` / `MAX` over the three recombine to the
//! aggregate over the whole. The check needs no reference evaluator, so it
//! sees a comparator or three-valued-logic bug that an oracle sharing the
//! engine's comparator would share.
//!
//! Tables hold INT / DOUBLE / TEXT / TIMESTAMP / BOOL columns drawn from an
//! adversarial domain (0, ±1, `i64::MIN` / `MAX`, 2^53 ± 1, ±0.0, doubles
//! equal to integers, NULL, `''`, digit strings, the epoch), once with a
//! secondary index on every column and once without. Predicates are random
//! trees of comparisons, arithmetic, AND / OR / NOT, IS [NOT] NULL, IN
//! lists holding NULL and BETWEEN.
//!
//! Every statement runs three ways: as text (planned), as text under
//! `set_force_scan(true)`, and prepared with a `?` for each literal outside
//! an IN list. A predicate may raise a typed error on some row (integer
//! overflow), and an index path reads only the rows its key selects, so
//! the ways must agree as follows:
//!
//! - planned and prepared read the same rows the same way: the same rows,
//!   or the same error message;
//! - the forced scan reads every row: when it succeeds the planned run
//!   returns the same rows, and when the planned run fails the forced scan
//!   fails with an error of the same kind;
//! - under the forced scan the three partitions evaluate `p` on the same
//!   rows in the same order, so they succeed together or raise the same
//!   error.
//!
//! Generation is seeded and deterministic; a failure is shrunk (rows
//! dropped, subtrees hoisted) and printed as the SQL that reproduces it.

use relstore::{Database, Error, QueryResult, Value};

/// xorshift64*: small, seeded, std only.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

const TWO_53: i64 = 1 << 53;
const INTS: [i64; 10] = [0, 1, -1, i64::MIN, i64::MAX, TWO_53 - 1, TWO_53, TWO_53 + 1, -TWO_53 - 1, 7];
const DOUBLES: [f64; 10] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    9_007_199_254_740_992.0,         // 2^53
    9_007_199_254_740_994.0,         // 2^53 + 2
    -9_223_372_036_854_775_808.0,    // i64::MIN, exactly
    9_223_372_036_854_775_808.0,     // 2^63, one past i64::MAX
    1e300,
];
const TEXTS: [&str; 6] = ["", "0", "1", "007", "-1", "a"];
const TIMESTAMPS: [i64; 5] = [0, 1, -1, 86_400, i64::MAX];

/// The table's columns after `id`, and the type each holds.
const COLUMNS: [(&str, &str); 5] = [
    ("i", "INT"),
    ("d", "DOUBLE"),
    ("s", "TEXT"),
    ("ts", "TIMESTAMP"),
    ("b", "BOOL"),
];

/// A value of column `c`'s type from the domain, NULL one time in five.
fn column_value(rng: &mut Rng, c: usize) -> Value {
    if rng.below(5) == 0 {
        return Value::Null;
    }
    match c {
        0 => Value::Int(rng.pick(&INTS)),
        1 => Value::Double(rng.pick(&DOUBLES)),
        2 => Value::Text(rng.pick(&TEXTS).into()),
        3 => Value::Timestamp(rng.pick(&TIMESTAMPS)),
        _ => Value::Bool(rng.below(2) == 0),
    }
}

/// A literal: any type, NULL included. TIMESTAMP has no literal syntax;
/// its values are written as the integers they compare equal to.
fn literal(rng: &mut Rng) -> Value {
    match rng.below(12) {
        0 => Value::Null,
        1..=3 => Value::Int(rng.pick(&INTS)),
        4..=5 => Value::Int(rng.pick(&TIMESTAMPS)),
        6..=8 => Value::Double(rng.pick(&DOUBLES)),
        9..=10 => Value::Text(rng.pick(&TEXTS).into()),
        _ => Value::Bool(rng.below(2) == 0),
    }
}

/// A numeric literal or NULL: arithmetic's operands.
fn numeric_literal(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1..=3 => Value::Int(rng.pick(&INTS)),
        _ => Value::Double(rng.pick(&DOUBLES)),
    }
}

#[derive(Clone, Debug)]
enum Node {
    Col(&'static str),
    Lit(Value),
    Arith(&'static str, Box<Node>, Box<Node>),
    Cmp(&'static str, Box<Node>, Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    IsNull(Box<Node>, bool),
    In(Box<Node>, Vec<Value>),
    Between(Box<Node>, Box<Node>, Box<Node>),
}

/// A value-typed expression: a column, a literal, or arithmetic over the
/// numeric ones.
fn scalar(rng: &mut Rng, depth: usize) -> Node {
    match rng.below(if depth > 0 { 10 } else { 8 }) {
        0..=3 => Node::Col(COLUMNS[rng.below(COLUMNS.len())].0),
        4..=7 => Node::Lit(literal(rng)),
        _ => Node::Arith(
            rng.pick(&["+", "-", "*", "/"]),
            Box::new(numeric(rng, depth - 1)),
            Box::new(numeric(rng, depth - 1)),
        ),
    }
}

fn numeric(rng: &mut Rng, depth: usize) -> Node {
    match rng.below(if depth > 0 { 7 } else { 6 }) {
        0..=2 => Node::Col(rng.pick(&["i", "d", "ts"])),
        3..=5 => Node::Lit(numeric_literal(rng)),
        _ => Node::Arith(
            rng.pick(&["+", "-", "*", "/"]),
            Box::new(numeric(rng, depth - 1)),
            Box::new(numeric(rng, depth - 1)),
        ),
    }
}

/// A predicate: anything that is TRUE, FALSE or NULL.
fn predicate(rng: &mut Rng, depth: usize) -> Node {
    let leaf = |rng: &mut Rng| scalar(rng, 1);
    match rng.below(if depth > 0 { 14 } else { 9 }) {
        0..=3 => Node::Cmp(
            rng.pick(&["=", "<>", "<", "<=", ">", ">="]),
            Box::new(leaf(rng)),
            Box::new(leaf(rng)),
        ),
        4 => Node::IsNull(Box::new(leaf(rng)), rng.below(2) == 0),
        5 => {
            let list = (0..1 + rng.below(4)).map(|_| literal(rng)).collect();
            Node::In(Box::new(leaf(rng)), list)
        }
        6 => Node::Between(
            Box::new(leaf(rng)),
            Box::new(Node::Lit(literal(rng))),
            Box::new(Node::Lit(literal(rng))),
        ),
        7 => Node::Col("b"),
        8 => Node::Lit(rng.pick(&[Value::Bool(true), Value::Bool(false), Value::Null])),
        9..=10 => Node::And(Box::new(predicate(rng, depth - 1)), Box::new(predicate(rng, depth - 1))),
        11..=12 => Node::Or(Box::new(predicate(rng, depth - 1)), Box::new(predicate(rng, depth - 1))),
        _ => Node::Not(Box::new(predicate(rng, depth - 1))),
    }
}

/// `v` as SQL text.
fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) | Value::Timestamp(i) => format!("({i})"),
        Value::Double(d) => format!("({d:?})"),
        Value::Text(s) => format!("'{s}'"),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
    }
}

impl Node {
    /// The node as SQL. With `params`, every literal outside an IN list is
    /// a `?` whose value is pushed there, in order.
    fn render(&self, params: &mut Option<Vec<Value>>) -> String {
        match self {
            Node::Col(c) => c.to_string(),
            Node::Lit(v) => match params {
                Some(p) => {
                    p.push(v.clone());
                    "?".into()
                }
                None => sql_literal(v),
            },
            Node::Arith(op, l, r) | Node::Cmp(op, l, r) => {
                let l = l.render(params);
                format!("({l} {op} {})", r.render(params))
            }
            Node::And(l, r) => {
                let l = l.render(params);
                format!("({l} AND {})", r.render(params))
            }
            Node::Or(l, r) => {
                let l = l.render(params);
                format!("({l} OR {})", r.render(params))
            }
            Node::Not(e) => format!("(NOT {})", e.render(params)),
            Node::IsNull(e, negated) => {
                let not = if *negated { " NOT" } else { "" };
                format!("({} IS{not} NULL)", e.render(params))
            }
            Node::In(e, list) => {
                let list: Vec<String> = list.iter().map(sql_literal).collect();
                format!("({} IN ({}))", e.render(params), list.join(", "))
            }
            Node::Between(e, lo, hi) => {
                let e = e.render(params);
                let lo = lo.render(params);
                format!("({e} BETWEEN {lo} AND {})", hi.render(params))
            }
        }
    }

    /// The node's operands, in order.
    fn children(&self) -> Vec<&Node> {
        match self {
            Node::Col(_) | Node::Lit(_) => vec![],
            Node::Arith(_, l, r) | Node::Cmp(_, l, r) | Node::And(l, r) | Node::Or(l, r) => vec![l, r],
            Node::Not(e) | Node::IsNull(e, _) | Node::In(e, _) => vec![e],
            Node::Between(e, lo, hi) => vec![e, lo, hi],
        }
    }

    /// Every tree made from this one by replacing one node with one of its
    /// children of the same kind — a connective with an operand, arithmetic
    /// with an operand — so a predicate stays a predicate.
    fn shrinks(&self) -> Vec<Node> {
        let mut out: Vec<Node> = match self {
            Node::And(l, r) | Node::Or(l, r) | Node::Arith(_, l, r) => vec![(**l).clone(), (**r).clone()],
            Node::Not(e) => vec![(**e).clone()],
            _ => vec![],
        };
        let rebuilt = |i: usize, child: Node| {
            let mut copy = self.clone();
            let slot: &mut Box<Node> = match (&mut copy, i) {
                (Node::Arith(_, l, _) | Node::Cmp(_, l, _) | Node::And(l, _) | Node::Or(l, _), 0) => l,
                (Node::Arith(_, _, r) | Node::Cmp(_, _, r) | Node::And(_, r) | Node::Or(_, r), 1) => r,
                (Node::Not(e) | Node::IsNull(e, _) | Node::In(e, _) | Node::Between(e, _, _), 0) => e,
                (Node::Between(_, lo, _), 1) => lo,
                (Node::Between(_, _, hi), 2) => hi,
                _ => unreachable!(),
            };
            **slot = child;
            copy
        };
        for (i, child) in self.children().into_iter().enumerate() {
            for smaller in child.shrinks() {
                out.push(rebuilt(i, smaller));
            }
        }
        out
    }
}

/// One generated case: the table's rows (`id` first) and the predicate.
#[derive(Clone)]
struct Case {
    rows: Vec<Vec<Value>>,
    p: Node,
}

fn database(rows: &[Vec<Value>], indexed: bool) -> Database {
    let db = Database::new();
    let cols: Vec<String> = COLUMNS.iter().map(|(c, ty)| format!("{c} {ty}")).collect();
    db.execute(&format!("CREATE TABLE t (id INT PRIMARY KEY, {})", cols.join(", ")))
        .unwrap();
    if indexed {
        for (c, _) in COLUMNS {
            db.execute(&format!("CREATE INDEX ON t ({c})")).unwrap();
        }
    }
    let insert = db.prepare("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)").unwrap();
    for row in rows {
        db.session().execute(&insert, row.clone()).unwrap();
    }
    db
}

/// A statement's outcome: its rows in a canonical order (row order is not
/// part of a WHERE clause's meaning), or its error.
type Outcome = Result<Vec<Vec<Value>>, Error>;

fn outcome(r: relstore::Result<QueryResult>) -> Outcome {
    r.map(|r| {
        let mut rows: Vec<Vec<Value>> = r.rows.into_iter().map(|row| row.values).collect();
        rows.sort_by_cached_key(|row| format!("{row:?}"));
        rows
    })
}

/// Rows equal value for value, `-0.0` and `0.0` told apart.
fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Runs `head WHERE <where_>` the three ways, checks they agree, and
/// returns the forced scan's outcome and the planned one's.
fn three_ways(
    db: &Database,
    head: &str,
    where_: impl Fn(&mut Option<Vec<Value>>) -> String,
) -> Result<(Outcome, Outcome), String> {
    let text = format!("{head} WHERE {}", where_(&mut None));
    let mut params = Some(Vec::new());
    let shaped = format!("{head} WHERE {}", where_(&mut params));
    let params = params.unwrap();

    let planned = outcome(db.query(&text));
    let prepared = outcome(db.prepare(&shaped).and_then(|s| db.session().query(&s, params.clone())));
    db.set_force_scan(true);
    let forced = outcome(db.query(&text));
    db.set_force_scan(false);

    let agree = match (&planned, &prepared) {
        (Ok(a), Ok(b)) => same_rows(a, b),
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    };
    if !agree {
        return Err(format!("{text}\n  planned {planned:?}\n  prepared ({shaped} with {params:?}) {prepared:?}"));
    }
    let agree = match (&forced, &planned) {
        (Ok(f), Ok(p)) => same_rows(f, p),
        (Ok(_), Err(_)) => false,
        (Err(f), Err(p)) => std::mem::discriminant(f) == std::mem::discriminant(p),
        (Err(_), Ok(_)) => true,
    };
    if !agree {
        return Err(format!("{text}\n  planned {planned:?}\n  forced scan {forced:?}"));
    }
    Ok((forced, planned))
}

const AGGREGATES: &str = "SELECT COUNT(*), SUM(i), MIN(d), MAX(d), MIN(s), MAX(ts) FROM t";

/// Recombines aggregate column `column` of [`AGGREGATES`] over the three
/// partitions' values.
fn recombine(column: usize, parts: &[&Value]) -> Value {
    let present = parts.iter().copied().filter(|v| !v.is_null());
    match column {
        0 | 1 => {
            let mut total: Option<i128> = None;
            for v in present {
                let Value::Int(n) = v else { panic!("COUNT / SUM(i) gave {v:?}") };
                total = Some(total.unwrap_or(0) + i128::from(*n));
            }
            match total {
                Some(t) => Value::Int(i64::try_from(t).expect("the whole's SUM fits")),
                None if column == 0 => Value::Int(0),
                None => Value::Null,
            }
        }
        2 | 4 => present.min().cloned().unwrap_or(Value::Null),
        _ => present.max().cloned().unwrap_or(Value::Null),
    }
}

/// The WHERE clause of partition `part` of `p`: `p`, `NOT (p)` or `(p) IS
/// NULL`.
fn partition(part: usize, p: &Node, params: &mut Option<Vec<Value>>) -> String {
    match part {
        0 => p.render(params),
        1 => format!("NOT ({})", p.render(params)),
        _ => format!("({}) IS NULL", p.render(params)),
    }
}

/// Checks one case on one database; `Err` describes the first failure.
fn check(case: &Case, indexed: bool) -> Result<(), String> {
    let db = database(&case.rows, indexed);
    let p = &case.p;
    let shown = p.render(&mut None);
    for head in ["SELECT * FROM t", AGGREGATES] {
        let whole = outcome(db.query(head));
        let mut runs = Vec::new();
        for part in 0..3 {
            runs.push(three_ways(&db, head, |params| partition(part, p, params))?);
        }
        // Under the forced scan every partition evaluates `p` on every
        // row, in one order: all succeed, or all raise the same error. (An
        // aggregate's own error, a SUM past INT, is the partition's.)
        let errors: Vec<String> = runs.iter().filter_map(|(f, _)| f.as_ref().err()).map(|e| e.to_string()).collect();
        if head != AGGREGATES && !errors.is_empty() && (errors.len() != 3 || errors.iter().any(|e| *e != errors[0])) {
            let forced: Vec<&Outcome> = runs.iter().map(|(f, _)| f).collect();
            return Err(format!("{head} WHERE {shown}: the forced-scan partitions disagree on failing: {forced:?}"));
        }
        let Ok(whole) = whole else {
            continue; // the aggregate over the whole overflows
        };
        for (way, side) in [("forced scan", 0), ("planned", 1)] {
            let parts: Option<Vec<&Vec<Vec<Value>>>> = runs
                .iter()
                .map(|run| if side == 0 { &run.0 } else { &run.1 }.as_ref().ok())
                .collect();
            let Some(parts) = parts else { continue };
            let fail = |what: String| Err(format!("{head} WHERE {shown} ({way}): {what}"));
            if head == AGGREGATES {
                for (c, want) in whole[0].iter().enumerate() {
                    let got = recombine(c, &parts.iter().map(|rows| &rows[0][c]).collect::<Vec<_>>());
                    if got != *want || got.is_null() != want.is_null() {
                        return fail(format!("column {c}: the partitions recombine to {got:?}, the whole is {want:?}"));
                    }
                }
            } else {
                let mut union: Vec<Vec<Value>> = parts.iter().flat_map(|rows| rows.iter().cloned()).collect();
                union.sort_by_cached_key(|row| format!("{row:?}"));
                if !same_rows(&union, &whole) {
                    return fail(format!("the partitions {parts:?} are not the table {whole:?}"));
                }
            }
        }
    }
    Ok(())
}

/// The smallest case still failing `check` that dropping rows and
/// hoisting subtrees reach from `case`, with its failure.
fn shrink(mut case: Case, indexed: bool, mut failure: String) -> (Case, String) {
    'progress: loop {
        for drop in 0..case.rows.len() {
            let mut smaller = case.clone();
            smaller.rows.remove(drop);
            if let Err(f) = check(&smaller, indexed) {
                (case, failure) = (smaller, f);
                continue 'progress;
            }
        }
        for p in case.p.shrinks() {
            let smaller = Case { p, ..case.clone() };
            if let Err(f) = check(&smaller, indexed) {
                (case, failure) = (smaller, f);
                continue 'progress;
            }
        }
        return (case, failure);
    }
}

#[test]
fn where_p_not_p_and_p_is_null_partition_the_table() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for n in 0..400 {
        let rows = (0..1 + rng.below(8))
            .map(|id| {
                let mut row = vec![Value::Int(id as i64)];
                row.extend((0..COLUMNS.len()).map(|c| column_value(&mut rng, c)));
                row
            })
            .collect();
        let case = Case {
            rows,
            p: predicate(&mut rng, 3),
        };
        for indexed in [false, true] {
            if let Err(failure) = check(&case, indexed) {
                let (min, failure) = shrink(case.clone(), indexed, failure);
                panic!(
                    "case {n} ({}), shrunk:\n  rows (id, i, d, s, ts, b): {:?}\n  p: {}\n  {failure}",
                    if indexed { "every column indexed" } else { "no secondary index" },
                    min.rows,
                    min.p.render(&mut None),
                );
            }
        }
    }
}
