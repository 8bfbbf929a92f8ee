//! The CondorJ2 relational schema.
//!
//! All operational state of the pool lives in these tables; every service call
//! the CAS handles becomes SQL against them. The schema mirrors the persistent
//! objects the paper lists for the persistence layer: users, jobs, machines,
//! matches, runs, configuration policies, plus the operational/historical
//! split called out in the code-base discussion (configuration management and
//! historical machine information are sizeable subsystems of the prototype).

/// DDL for every CondorJ2 table, executed at CAS startup.
pub const DDL: &[&str] = &[
    "CREATE TABLE users (
        name TEXT PRIMARY KEY,
        priority DOUBLE,
        created TIMESTAMP
    )",
    "CREATE TABLE jobs (
        job_id INT PRIMARY KEY,
        owner TEXT NOT NULL,
        state TEXT NOT NULL,
        runtime_ms INT,
        submitted TIMESTAMP,
        updated TIMESTAMP,
        requeues INT
    )",
    "CREATE INDEX ON jobs (state)",
    "CREATE INDEX ON jobs (owner)",
    "CREATE TABLE machines (
        machine_id INT PRIMARY KEY,
        name TEXT NOT NULL,
        state TEXT NOT NULL,
        speed DOUBLE,
        phys_id INT,
        last_heartbeat TIMESTAMP
    )",
    "CREATE INDEX ON machines (state)",
    "CREATE TABLE matches (
        match_id INT PRIMARY KEY,
        job_id INT NOT NULL,
        machine_id INT NOT NULL,
        created TIMESTAMP
    )",
    "CREATE INDEX ON matches (machine_id)",
    "CREATE INDEX ON matches (job_id)",
    "CREATE TABLE runs (
        run_id INT PRIMARY KEY,
        job_id INT NOT NULL,
        machine_id INT NOT NULL,
        started TIMESTAMP
    )",
    "CREATE INDEX ON runs (machine_id)",
    "CREATE INDEX ON runs (job_id)",
    "CREATE TABLE job_history (
        history_id INT PRIMARY KEY,
        job_id INT NOT NULL,
        owner TEXT,
        runtime_ms INT,
        submitted TIMESTAMP,
        completed TIMESTAMP,
        machine_id INT,
        requeues INT
    )",
    "CREATE INDEX ON job_history (owner)",
    "CREATE TABLE machine_history (
        event_id INT PRIMARY KEY,
        machine_id INT NOT NULL,
        rebooted TIMESTAMP,
        os TEXT,
        arch TEXT,
        memory_mb INT
    )",
    "CREATE INDEX ON machine_history (machine_id)",
    "CREATE TABLE config (
        name TEXT PRIMARY KEY,
        value TEXT,
        updated TIMESTAMP
    )",
    "CREATE TABLE provenance (
        record_id INT PRIMARY KEY,
        job_id INT NOT NULL,
        executable TEXT,
        input_dataset TEXT,
        output_dataset TEXT,
        recorded TIMESTAMP
    )",
    "CREATE INDEX ON provenance (output_dataset)",
];

/// Names of every table created by [`DDL`], in creation order.
pub const TABLES: &[&str] = &[
    "users",
    "jobs",
    "machines",
    "matches",
    "runs",
    "job_history",
    "machine_history",
    "config",
    "provenance",
];

/// Deploys the schema into a database as one transaction — a fresh durable
/// deployment is one commit — and idempotently: a table or index that
/// already exists is kept as it is.
pub fn deploy(db: &relstore::Database) -> relstore::Result<()> {
    let txn = db.transaction();
    for ddl in DDL {
        match txn.execute(*ddl, ()) {
            Ok(_) | Err(relstore::Error::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
    }
    txn.commit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::Database;

    #[test]
    fn schema_deploys_all_tables() {
        let db = Database::new();
        deploy(&db).unwrap();
        let names = db.table_names();
        for table in TABLES {
            assert!(names.contains(&table.to_string()), "missing table {table}");
        }
        // Core tables start empty.
        assert_eq!(db.table_len("jobs").unwrap(), 0);
        assert_eq!(db.table_len("machines").unwrap(), 0);
    }

    #[test]
    fn deploy_is_idempotent() {
        let db = Database::new();
        deploy(&db).unwrap();
        db.execute("INSERT INTO jobs (job_id, owner, state) VALUES (1, 'alice', 'idle')")
            .unwrap();
        deploy(&db).unwrap();
        assert_eq!(db.table_len("jobs").unwrap(), 1, "redeploy must not drop data");
    }

    #[test]
    fn a_durable_deployment_is_one_commit_and_a_redeployment_none() {
        use relstore::{DurabilityPolicy, MemDevice};
        let db = Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always)
            .unwrap();
        deploy(&db).unwrap();
        let fresh = db.stats();
        assert_eq!((fresh.commits, fresh.wal_records, fresh.wal_fsyncs), (1, 1, 1));
        deploy(&db).unwrap();
        let again = db.stats().delta_since(&fresh);
        assert_eq!((again.wal_records, again.wal_fsyncs), (0, 0));

        // A deployment that lost an index (an older one never logged them)
        // gets it back without touching what is there.
        let bare = Database::new();
        bare.execute(DDL[1]).unwrap();
        bare.execute("INSERT INTO jobs (job_id, owner, state) VALUES (1, 'alice', 'idle')").unwrap();
        deploy(&bare).unwrap();
        assert_eq!(bare.table_len("jobs").unwrap(), 1);
        let plan = bare.query("EXPLAIN SELECT job_id FROM jobs WHERE state = 'idle'").unwrap();
        assert!(format!("{:?}", plan.rows).contains("point lookup on jobs.state"), "{plan:?}");
    }

    #[test]
    fn schema_supports_the_matchmaking_join() {
        let db = Database::new();
        deploy(&db).unwrap();
        db.execute("INSERT INTO jobs (job_id, owner, state) VALUES (1, 'a', 'matched')").unwrap();
        db.execute("INSERT INTO machines (machine_id, name, state) VALUES (7, 'vm1@n', 'matched')")
            .unwrap();
        db.execute("INSERT INTO matches (match_id, job_id, machine_id) VALUES (1, 1, 7)").unwrap();
        let r = db
            .query(
                "SELECT jobs.job_id, machines.name FROM jobs \
                 JOIN matches ON jobs.job_id = matches.job_id \
                 JOIN machines ON matches.machine_id = machines.machine_id",
            )
            .unwrap();
        assert_eq!(r.len(), 1);
    }
}
