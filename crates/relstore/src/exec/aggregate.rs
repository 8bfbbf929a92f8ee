//! GROUP BY and aggregate-function evaluation.

use super::QueryResult;
use crate::error::{Error, Result};
use crate::govern::Governor;
use crate::predicate::Expr;
use crate::schema::Schema;
use crate::sql::ast::{AggFunc, SelectItem, SelectStmt, SortOrder};
use crate::stats::OpStats;
use crate::tuple::Row;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Incremental state for one aggregate over one group.
#[derive(Debug, Clone)]
struct AggState {
    func: AggFunc,
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
    all_int: bool,
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        AggState {
            func,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            all_int: true,
        }
    }

    fn update(&mut self, value: Option<&Value>) -> Result<()> {
        match self.func {
            AggFunc::Count => {
                // COUNT(*) counts rows; COUNT(col) counts non-null values.
                match value {
                    None => self.count += 1,
                    Some(v) if !v.is_null() => self.count += 1,
                    Some(_) => {}
                }
            }
            AggFunc::Sum | AggFunc::Avg => {
                if let Some(v) = value {
                    if !v.is_null() {
                        if !matches!(v, Value::Int(_) | Value::Timestamp(_)) {
                            self.all_int = false;
                        }
                        self.sum += v.as_double()?;
                        self.count += 1;
                    }
                }
            }
            AggFunc::Min => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match &self.min {
                            None => true,
                            Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Less,
                        };
                        if replace {
                            self.min = Some(v.clone());
                        }
                        self.count += 1;
                    }
                }
            }
            AggFunc::Max => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match &self.max {
                            None => true,
                            Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Greater,
                        };
                        if replace {
                            self.max = Some(v.clone());
                        }
                        self.count += 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.all_int {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Double(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Double(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

fn resolve(schema: &Schema, name: &str) -> Result<usize> {
    // Accept both bare and qualified names against the flattened schema.
    if let Ok(i) = schema.column_index(name) {
        return Ok(i);
    }
    let lname = name.to_ascii_lowercase();
    if !lname.contains('.') {
        let suffix = format!(".{lname}");
        let hits: Vec<usize> = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.name.ends_with(&suffix))
            .map(|(i, _)| i)
            .collect();
        if hits.len() == 1 {
            return Ok(hits[0]);
        }
    } else if let Some((_, bare)) = lname.split_once('.') {
        if let Ok(i) = schema.column_index(bare) {
            return Ok(i);
        }
    }
    Err(Error::not_found(format!("column {name}")))
}

/// Executes the aggregation/grouping phase of a SELECT over pre-filtered
/// rows. The input is consumed as an iterator of borrowed rows, so the
/// single-table path can stream heap rows straight into the accumulators
/// without materialising owned copies.
pub fn execute_aggregate<'a>(
    stmt: &SelectStmt,
    schema: &Schema,
    rows: impl IntoIterator<Item = &'a Row>,
    limit: Option<usize>,
    _stats: &mut OpStats,
    gov: &mut Governor,
) -> Result<QueryResult> {
    // Resolve grouping columns.
    let group_idx: Vec<usize> = stmt
        .group_by
        .iter()
        .map(|c| resolve(schema, c))
        .collect::<Result<_>>()?;

    // Describe the output columns and how to compute each.
    enum OutCol {
        Group(usize),
        Agg { func: AggFunc, col: Option<usize> },
    }
    let mut out_cols: Vec<(Arc<str>, OutCol)> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                return Err(Error::type_err(
                    "SELECT * cannot be combined with aggregates",
                ))
            }
            SelectItem::Expr { expr, alias } => {
                // Plain expressions in an aggregate query must be grouping columns.
                let Expr::Column(name) = expr else {
                    return Err(Error::type_err(format!(
                        "non-aggregate expression {expr} requires GROUP BY column"
                    )));
                };
                let idx = resolve(schema, name)?;
                if !group_idx.contains(&idx) {
                    return Err(Error::type_err(format!(
                        "column {name} must appear in GROUP BY"
                    )));
                }
                // Grouping columns reuse the schema's interned name.
                let out_name: Arc<str> = match alias {
                    Some(a) => Arc::from(a.as_str()),
                    None => schema.columns[idx].name.clone(),
                };
                out_cols.push((out_name, OutCol::Group(idx)));
            }
            SelectItem::Aggregate {
                func,
                column,
                alias,
            } => {
                let col = match column {
                    Some(c) => Some(resolve(schema, c)?),
                    None => None,
                };
                let out_name: Arc<str> = match alias {
                    Some(a) => Arc::from(a.as_str()),
                    None => match column {
                        Some(c) => {
                            format!("{}({})", func.name().to_ascii_lowercase(), c).into()
                        }
                        None => format!("{}(*)", func.name().to_ascii_lowercase()).into(),
                    },
                };
                out_cols.push((out_name, OutCol::Agg { func: *func, col }));
            }
        }
    }

    // Group rows. With no GROUP BY the whole input forms one group (even when
    // empty, which yields one row of zero/NULL aggregates).
    let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
    let make_states = || -> Vec<AggState> {
        out_cols
            .iter()
            .filter_map(|(_, c)| match c {
                OutCol::Agg { func, .. } => Some(AggState::new(*func)),
                OutCol::Group(_) => None,
            })
            .collect()
    };
    if group_idx.is_empty() {
        groups.insert(Vec::new(), make_states());
    }
    for row in rows {
        gov.tick()?;
        let key: Vec<Value> = group_idx.iter().map(|i| row.get(*i).clone()).collect();
        let states = groups.entry(key).or_insert_with(make_states);
        let mut agg_i = 0usize;
        for (_, col) in &out_cols {
            if let OutCol::Agg { col, .. } = col {
                let value = col.map(|i| row.get(i));
                states[agg_i].update(value)?;
                agg_i += 1;
            }
        }
    }

    // Produce output rows.
    let columns: Vec<Arc<str>> = out_cols.iter().map(|(n, _)| n.clone()).collect();
    let mut out_rows = Vec::with_capacity(groups.len());
    for (key, states) in &groups {
        let mut values = Vec::with_capacity(out_cols.len());
        let mut agg_i = 0usize;
        for (_, col) in &out_cols {
            match col {
                OutCol::Group(idx) => {
                    let pos = group_idx.iter().position(|g| g == idx).ok_or_else(|| {
                        Error::internal("grouping column missing from key")
                    })?;
                    values.push(key[pos].clone());
                }
                OutCol::Agg { .. } => {
                    values.push(states[agg_i].finish());
                    agg_i += 1;
                }
            }
        }
        out_rows.push(Row::new(values));
    }

    // ORDER BY over the aggregate output (by output column name).
    if !stmt.order_by.is_empty() {
        let result_schema = Schema::new(
            "agg",
            columns
                .iter()
                .map(|c| crate::schema::Column::new(c.clone(), crate::value::DataType::Text))
                .collect(),
        );
        let keys: Vec<(usize, SortOrder)> = stmt
            .order_by
            .iter()
            .map(|k| Ok((resolve(&result_schema, &k.column)?, k.order)))
            .collect::<Result<_>>()?;
        out_rows.sort_by(|a, b| {
            for (idx, order) in &keys {
                let cmp = a.get(*idx).total_cmp(b.get(*idx));
                let cmp = match order {
                    SortOrder::Asc => cmp,
                    SortOrder::Desc => cmp.reverse(),
                };
                if cmp != std::cmp::Ordering::Equal {
                    return cmp;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(limit) = limit {
        out_rows.truncate(limit);
    }

    Ok(QueryResult {
        columns: columns.into(),
        rows: out_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(
            "jobs",
            vec![
                Column::new("owner", DataType::Text),
                Column::new("runtime", DataType::Double),
                Column::new("priority", DataType::Int),
            ],
        )
    }

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Text("alice".into()), Value::Double(60.0), Value::Int(1)]),
            Row::new(vec![Value::Text("alice".into()), Value::Double(120.0), Value::Int(2)]),
            Row::new(vec![Value::Text("bob".into()), Value::Double(30.0), Value::Int(3)]),
            Row::new(vec![Value::Text("bob".into()), Value::Null, Value::Int(4)]),
        ]
    }

    fn run(sql: &str, rows: Vec<Row>) -> QueryResult {
        let Statement::Select(stmt) = parse(sql).unwrap() else {
            panic!()
        };
        execute_aggregate(
            &stmt,
            &schema(),
            &rows,
            stmt.limit_with(&[]).unwrap(),
            &mut OpStats::default(),
            &mut Governor::disarmed(),
        )
        .unwrap()
    }

    #[test]
    fn global_aggregates() {
        let r = run(
            "SELECT COUNT(*), COUNT(runtime), SUM(runtime), AVG(runtime), MIN(priority), MAX(priority) FROM jobs",
            rows(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "count(*)"), Some(&Value::Int(4)));
        assert_eq!(r.value(0, "count(runtime)"), Some(&Value::Int(3)));
        assert_eq!(r.value(0, "sum(runtime)"), Some(&Value::Double(210.0)));
        assert_eq!(r.value(0, "avg(runtime)"), Some(&Value::Double(70.0)));
        assert_eq!(r.value(0, "min(priority)"), Some(&Value::Int(1)));
        assert_eq!(r.value(0, "max(priority)"), Some(&Value::Int(4)));
    }

    #[test]
    fn empty_input_yields_zero_count_and_null_aggs() {
        let r = run("SELECT COUNT(*), SUM(runtime), AVG(runtime) FROM jobs", vec![]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "count(*)"), Some(&Value::Int(0)));
        assert_eq!(r.value(0, "sum(runtime)"), Some(&Value::Null));
        assert_eq!(r.value(0, "avg(runtime)"), Some(&Value::Null));
    }

    #[test]
    fn group_by_with_aliases_and_order() {
        let r = run(
            "SELECT owner, COUNT(*) AS n, SUM(runtime) AS total FROM jobs GROUP BY owner ORDER BY owner",
            rows(),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, "owner"), Some(&Value::Text("alice".into())));
        assert_eq!(r.value(0, "n"), Some(&Value::Int(2)));
        assert_eq!(r.value(0, "total"), Some(&Value::Double(180.0)));
        assert_eq!(r.value(1, "owner"), Some(&Value::Text("bob".into())));
        assert_eq!(r.value(1, "total"), Some(&Value::Double(30.0)));
    }

    #[test]
    fn integer_sum_stays_integer() {
        let r = run("SELECT SUM(priority) FROM jobs", rows());
        assert_eq!(r.value(0, "sum(priority)"), Some(&Value::Int(10)));
    }

    #[test]
    fn non_grouped_column_is_rejected() {
        let Statement::Select(stmt) = parse("SELECT owner, COUNT(*) FROM jobs").unwrap() else {
            panic!()
        };
        assert!(execute_aggregate(
            &stmt,
            &schema(),
            &rows(),
            None,
            &mut OpStats::default(),
            &mut Governor::disarmed()
        )
        .is_err());
        let Statement::Select(stmt) = parse("SELECT *, COUNT(*) FROM jobs").unwrap() else {
            panic!()
        };
        assert!(execute_aggregate(
            &stmt,
            &schema(),
            &rows(),
            None,
            &mut OpStats::default(),
            &mut Governor::disarmed()
        )
        .is_err());
    }

    #[test]
    fn group_limit_applies_after_sort() {
        let r = run(
            "SELECT owner, COUNT(*) AS n FROM jobs GROUP BY owner ORDER BY owner DESC LIMIT 1",
            rows(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "owner"), Some(&Value::Text("bob".into())));
    }
}
