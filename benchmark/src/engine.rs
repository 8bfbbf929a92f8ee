//! The engine's own counters, read the way an operator would: by SQL over
//! the `rel_stats`, `rel_histograms` and `rel_statements` system tables.
//!
//! Nothing here names an `OpStats` field, so a counter that a later change
//! renames or drops becomes a zero per-layer metric instead of a build
//! break.

use relstore::{Database, Result};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Hist {
    pub count: i64,
    /// `count × mean_us`: an estimate, the engine derives the mean from
    /// bucket midpoints.
    pub total_us: f64,
    /// Cumulative since the database opened (quantiles cannot be diffed).
    pub p50_us: f64,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stmt {
    pub kind: String,
    pub calls: i64,
    pub rows: i64,
    pub total_us: f64,
}

/// One reading of the three system tables.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub stats: BTreeMap<String, i64>,
    gauges: Vec<String>,
    pub hists: BTreeMap<String, Hist>,
    pub stmts: BTreeMap<String, Stmt>,
}

fn read_stats(db: &Database, snap: &mut Snapshot) -> Result<()> {
    let rows = db
        .session()
        .query("SELECT name, kind, value FROM rel_stats", ())?;
    for v in rows.views() {
        let name: String = v.get("name")?;
        if v.get::<String>("kind")? == "gauge" {
            snap.gauges.push(name.clone());
        }
        snap.stats.insert(name, v.get("value")?);
    }
    Ok(())
}

fn read_rest(db: &Database, snap: &mut Snapshot) -> Result<()> {
    let rows = db.session().query(
        "SELECT name, count, p50_us, mean_us FROM rel_histograms",
        (),
    )?;
    for v in rows.views() {
        snap.hists.insert(v.get("name")?, {
            let count: i64 = v.get("count")?;
            let mean_us = v.get::<Option<f64>>("mean_us")?.unwrap_or(0.0);
            Hist {
                count,
                total_us: count as f64 * mean_us,
                p50_us: v.get::<Option<f64>>("p50_us")?.unwrap_or(0.0),
            }
        });
    }
    let rows = db.session().query(
        "SELECT sql, kind, calls, total_rows, total_us FROM rel_statements",
        (),
    )?;
    for v in rows.views() {
        snap.stmts.insert(
            v.get("sql")?,
            Stmt {
                kind: v.get("kind")?,
                calls: v.get("calls")?,
                rows: v.get("total_rows")?,
                total_us: v.get("total_us")?,
            },
        );
    }
    Ok(())
}

impl Snapshot {
    /// Reading taken *before* a measured region: `rel_stats` is read last,
    /// so the region's counter delta holds none of this reading's own work.
    pub fn before(db: &Database) -> Result<Snapshot> {
        let mut snap = Snapshot::default();
        read_rest(db, &mut snap)?;
        read_stats(db, &mut snap)?;
        Ok(snap)
    }

    /// What the engine did since `before` was read, less the footprint the
    /// readings themselves leave (measured by a back-to-back pair), so that
    /// a region's counters hold the region's work exactly.
    pub fn region(db: &Database, before: &Snapshot) -> Result<Delta> {
        let mut delta = Snapshot::after(db)?.since(before);
        let empty = Snapshot::before(db)?;
        let floor = Snapshot::after(db)?.since(&empty);
        for (name, v) in &mut delta.stats {
            if !delta.gauges.contains(name) {
                *v -= floor.stats.get(name).copied().unwrap_or(0);
            }
        }
        for (name, h) in &mut delta.hists {
            let f = floor.hist(name);
            h.count -= f.count;
            h.total_us -= f.total_us;
        }
        Ok(delta)
    }

    /// Reading taken *after* a measured region: `rel_stats` is read first.
    pub fn after(db: &Database) -> Result<Snapshot> {
        let mut snap = Snapshot::default();
        read_stats(db, &mut snap)?;
        read_rest(db, &mut snap)?;
        Ok(snap)
    }

    pub fn stat(&self, name: &str) -> i64 {
        self.stats.get(name).copied().unwrap_or(0)
    }

    /// `self − earlier`: counters and histogram totals subtract, gauges keep
    /// the later reading, statements keep what they gained.
    pub fn since(&self, earlier: &Snapshot) -> Delta {
        let mut stats = BTreeMap::new();
        for (name, v) in &self.stats {
            let d = if self.gauges.iter().any(|g| g == name) {
                *v
            } else {
                v - earlier.stat(name)
            };
            stats.insert(name.clone(), d);
        }
        let mut hists = BTreeMap::new();
        for (name, h) in &self.hists {
            let e = earlier.hists.get(name).copied().unwrap_or_default();
            hists.insert(
                name.clone(),
                Hist {
                    count: h.count - e.count,
                    total_us: h.total_us - e.total_us,
                    p50_us: h.p50_us,
                },
            );
        }
        let mut stmts = Vec::new();
        for (sql, s) in &self.stmts {
            // The readings' own queries are not the workload's.
            if sql.contains("FROM rel_") {
                continue;
            }
            let e = earlier.stmts.get(sql).cloned().unwrap_or_default();
            // An entry evicted from the statement cache and re-created
            // restarts from zero; take what it holds now.
            let (calls, rows, total_us) = if s.calls >= e.calls {
                (s.calls - e.calls, s.rows - e.rows, s.total_us - e.total_us)
            } else {
                (s.calls, s.rows, s.total_us)
            };
            if calls > 0 {
                stmts.push((
                    sql.clone(),
                    Stmt {
                        kind: s.kind.clone(),
                        calls,
                        rows,
                        total_us,
                    },
                ));
            }
        }
        by_total_time(&mut stmts);
        Delta {
            stats,
            gauges: self.gauges.clone(),
            hists,
            stmts,
        }
    }
}

/// Slowest cumulative time first; ties by text, so the order repeats.
fn by_total_time(stmts: &mut [(String, Stmt)]) {
    stmts.sort_by(|a, b| {
        b.1.total_us
            .total_cmp(&a.1.total_us)
            .then_with(|| a.0.cmp(&b.0))
    });
}

/// What the engine did between two readings.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    pub stats: BTreeMap<String, i64>,
    gauges: Vec<String>,
    pub hists: BTreeMap<String, Hist>,
    /// Statements that ran in the region, slowest cumulative time first.
    pub stmts: Vec<(String, Stmt)>,
}

impl Delta {
    pub fn stat(&self, name: &str) -> f64 {
        self.stats.get(name).copied().unwrap_or(0) as f64
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.hists.get(name).copied().unwrap_or_default()
    }

    /// Σ time inside engine statements, in µs, from the statement profiles
    /// (exact totals; the histograms only estimate means from power-of-two
    /// bucket midpoints). A profile evicted from the statement cache during
    /// the region takes its time with it.
    pub fn stmt_time_us(&self) -> f64 {
        self.stmts.iter().map(|(_, s)| s.total_us).sum()
    }

    /// Rows returned by SELECTs, from the statement profiles.
    pub fn rows_returned(&self) -> f64 {
        self.stmts
            .iter()
            .filter(|(_, s)| s.kind == "select")
            .map(|(_, s)| s.rows as f64)
            .sum()
    }

    /// Adds another region's work (the traced rounds of one run): counters
    /// and times add up, gauges keep their maximum.
    pub fn add(&mut self, other: &Delta) {
        for (name, v) in &other.stats {
            let e = self.stats.entry(name.clone()).or_insert(0);
            *e = if other.gauges.contains(name) {
                (*e).max(*v)
            } else {
                *e + *v
            };
        }
        self.gauges = other.gauges.clone();
        for (name, h) in &other.hists {
            let e = self.hists.entry(name.clone()).or_default();
            e.count += h.count;
            e.total_us += h.total_us;
            e.p50_us = h.p50_us;
        }
        for (sql, s) in &other.stmts {
            match self.stmts.iter_mut().find(|(q, _)| q == sql) {
                Some((_, e)) => {
                    e.calls += s.calls;
                    e.rows += s.rows;
                    e.total_us += s.total_us;
                }
                None => self.stmts.push((sql.clone(), s.clone())),
            }
        }
        by_total_time(&mut self.stmts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_hold_only_the_region_between_the_readings() {
        let db = Database::new();
        db.session()
            .execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)", ())
            .unwrap();
        let before = Snapshot::before(&db).unwrap();
        let ins = db.prepare("INSERT INTO t (a, b) VALUES (?, ?)").unwrap();
        for i in 0..10i64 {
            db.session().execute(&ins, (i, i * 2)).unwrap();
        }
        let sel = db.prepare("SELECT b FROM t WHERE a = ?").unwrap();
        for i in 0..5i64 {
            db.session().query(&sel, (i,)).unwrap();
        }
        let d = Snapshot::region(&db, &before).unwrap();
        // Exactly the region's statements: no reading's own SELECT leaks in.
        assert_eq!(d.stat("statements_executed"), 15.0);
        assert_eq!(d.stat("rows_inserted"), 10.0);
        assert_eq!(d.hist("stmt.insert").count, 10);
        assert!(d.stmt_time_us() > 0.0);
        assert_eq!(d.rows_returned(), 5.0);
        assert_eq!(d.stmts.iter().map(|(_, s)| s.calls).sum::<i64>(), 15);
        // A second, empty region reads zero.
        let before2 = Snapshot::before(&db).unwrap();
        let empty = Snapshot::region(&db, &before2).unwrap();
        assert_eq!(empty.stat("statements_executed"), 0.0);
        assert_eq!(empty.stat("rows_read"), 0.0);
        assert_eq!(empty.hist("stmt.select").count, 0);
    }
}
