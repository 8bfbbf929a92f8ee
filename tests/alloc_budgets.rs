//! Exact heap-allocation counts per execution of the engine's hot
//! statements, with every cache warm: a changed number here is a changed
//! allocation pattern, found before any benchmark runs.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! the allocations (`alloc`, `alloc_zeroed` and `realloc`) each thread
//! makes, so the tests of this binary, which run on threads of their own,
//! do not see each other's. Each count is taken three times after three
//! warm-up runs, and every run must allocate exactly the pinned number.

use condorj2::{CasState, HeartbeatReply, HeartbeatReport};
use relstore::{Database, ExecResult, Prepared, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `run` makes on this thread, each time of three, after
/// three runs to warm every cache it touches; panics unless all three
/// agree.
fn allocations(run: impl FnMut()) -> u64 {
    allocations_after(|| {}, run)
}

/// [`allocations`], with `setup` run before each `run` and not counted.
fn allocations_after(mut setup: impl FnMut(), mut run: impl FnMut()) -> u64 {
    for _ in 0..3 {
        setup();
        run();
    }
    let counts: Vec<u64> = (0..3)
        .map(|_| {
            setup();
            let before = ALLOCATIONS.with(Cell::get);
            run();
            ALLOCATIONS.with(Cell::get) - before
        })
        .collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "allocations differ between runs: {counts:?}");
    counts[0]
}

/// `jobs`-shaped table of `rows` rows.
fn jobs(rows: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, runtime_ms INT, submitted TIMESTAMP)")
        .unwrap();
    let ins = db.prepare("INSERT INTO jobs VALUES (?, ?, 60000, ?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..rows).map(|i| (i, format!("user{}", i % 50), Value::Timestamp(i))))
        .unwrap();
    db
}

#[test]
fn a_prepared_point_select_allocates_its_result() {
    let db = jobs(1_000);
    let point = db.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
    let session = db.session();
    let n = allocations(|| {
        assert_eq!(session.query(&point, (500i64,)).unwrap().len(), 1);
    });
    assert_eq!(n, 3);
}

#[test]
fn a_prepared_single_row_update_allocates_a_fixed_count() {
    let db = jobs(1_000);
    let update = db.prepare("UPDATE jobs SET runtime_ms = ? WHERE job_id = ?").unwrap();
    let session = db.session();
    let mut runtime = 0i64;
    // Vacuumed between runs, so the row's version chain, which grows by
    // doubling, is one version long at every run.
    let n = allocations_after(
        || {
            db.vacuum_all();
        },
        || {
            runtime += 1;
            assert_eq!(session.execute(&update, (runtime, 500i64)).unwrap(), ExecResult::Affected(1));
        },
    );
    assert_eq!(n, 10);
}

#[test]
fn a_cas_idle_heartbeat_allocates_a_fixed_count() {
    let mut cas = CasState::new(Arc::new(Database::new())).unwrap();
    for m in 0..10 {
        cas.register_machine(m, &format!("vm{m}@node"), 1.0, 0, 2048).unwrap();
    }
    let db = Arc::clone(cas.database());
    let n = allocations_after(
        || {
            db.vacuum_all();
        },
        || assert_eq!(cas.heartbeat(3, HeartbeatReport::Idle).unwrap(), HeartbeatReply::Ok),
    );
    assert_eq!(n, 15);
}

#[test]
fn a_range_count_allocates_the_same_whatever_it_scans() {
    let count = |rows: i64| {
        let db = jobs(rows);
        let range = db
            .prepare("SELECT COUNT(*) FROM jobs WHERE submitted >= ? AND submitted < ?")
            .unwrap();
        let session = db.session();
        allocations(|| {
            let r = session.query(&range, (100i64, 600i64)).unwrap();
            assert_eq!(r.scalar_int(), Some(500));
        })
    };
    assert_eq!((count(1_000), count(10_000)), (13, 13));
}

/// `job_history ⋈ machines` as an operator runs it, with `machines`
/// written between runs: the build side is read afresh each time, as
/// references, so the execution allocates its result and a fixed few
/// vectors, nothing per build row.
#[test]
fn a_hash_join_after_a_write_allocates_no_build_rows() {
    const MACHINES: i64 = 200;
    const HISTORY: i64 = 1_000;
    let db = Arc::new(Database::new());
    let _cas = CasState::new(Arc::clone(&db)).unwrap();
    let machine = db
        .prepare("INSERT INTO machines (machine_id, name, state, speed, phys_id, last_heartbeat) VALUES (?, ?, 'idle', 1.0, 0, 0)")
        .unwrap();
    db.session()
        .execute_batch(&machine, (0..MACHINES).map(|m| (m, format!("vm{m}@node"))))
        .unwrap();
    let done = db
        .prepare("INSERT INTO job_history (history_id, job_id, owner, runtime_ms, machine_id) VALUES (?, ?, ?, 60000, ?)")
        .unwrap();
    db.session()
        .execute_batch(&done, (0..HISTORY).map(|h| (h, h, format!("user{}", h % 4), h % MACHINES)))
        .unwrap();
    let join: Prepared = db
        .prepare(
            "SELECT job_history.history_id, machines.name FROM job_history \
             JOIN machines ON job_history.machine_id = machines.machine_id \
             WHERE job_history.owner = ?",
        )
        .unwrap();
    let plan = db
        .session()
        .query(
            "EXPLAIN SELECT job_history.history_id, machines.name FROM job_history \
             JOIN machines ON job_history.machine_id = machines.machine_id \
             WHERE job_history.owner = 'user1'",
            (),
        )
        .unwrap();
    assert!(format!("{plan:?}").contains("HashJoin(machines)"), "{plan:?}");
    let touch = db.prepare("UPDATE machines SET last_heartbeat = ? WHERE machine_id = ?").unwrap();
    let session = db.session();
    let mut now = 0i64;
    let mut joined = 0;
    let n = allocations_after(
        || {
            now += 1;
            session.execute(&touch, (now, 7i64)).unwrap();
        },
        || joined = session.query(&join, ("user1",)).unwrap().len(),
    );
    assert_eq!(joined, (HISTORY / 4) as usize);
    assert_eq!(n, 274);
}

