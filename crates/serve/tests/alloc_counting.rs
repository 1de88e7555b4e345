//! Proves the batched INGEST hot path is allocation-free at steady
//! state: after warmup (scratch buffers at capacity, customers and
//! items known, WAL appender open), `Engine::respond_batch` executes a
//! durable, fsynced batch without touching the heap. A second phase pins
//! what a request that closes windows allocates, term by term.
//!
//! The proof is a counting `#[global_allocator]`: allocations are
//! counted only while the measured window is open, so test-harness and
//! setup allocations don't pollute the count. This file holds exactly
//! one test — a second test thread would race the counter.

use attrition_core::StabilityParams;
use attrition_serve::engine::{BatchScratch, DurabilityConfig, Engine};
use attrition_serve::shard::ShardedMonitor;
use attrition_serve::{PackedLines, SyncPolicy};
use attrition_store::WindowSpec;
use attrition_types::{CustomerId, Date};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Pre-rendered `BATCH` frame bodies: 8 INGEST members over two fixed
/// customers and a fixed item set, all inside one window so nothing
/// ever closes mid-measurement.
fn frames(n: usize, salt: u64) -> Vec<(String, Vec<(usize, usize)>)> {
    (0..n)
        .map(|f| {
            let mut buf = String::new();
            let mut bounds = Vec::new();
            for m in 0..8u64 {
                let customer = 1 + m % 2;
                let day = 1 + (salt + m) % 28;
                let a = 1 + m % 4;
                let b = 5 + (m + f as u64) % 4;
                let start = buf.len();
                use std::fmt::Write as _;
                let _ = write!(buf, "INGEST {customer} 2012-05-{day:02} {a} {b}");
                bounds.push((start, buf.len()));
            }
            (buf, bounds)
        })
        .collect()
}

/// One `BATCH` frame body: an `INGEST` of `items` for each customer,
/// dated inside window `window` of `spec`.
fn ingest_frame(
    spec: WindowSpec,
    customers: &[u64],
    window: u32,
    items: &[u32],
) -> (String, Vec<(usize, usize)>) {
    use std::fmt::Write as _;
    let date = spec.window_start(window) + 3;
    let mut buf = String::new();
    let mut bounds = Vec::new();
    for customer in customers {
        let start = buf.len();
        let _ = write!(buf, "INGEST {customer} {date}");
        for item in items {
            let _ = write!(buf, " {item}");
        }
        bounds.push((start, buf.len()));
    }
    (buf, bounds)
}

/// Allocations made while `run` executes.
fn count_allocs(run: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    run();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_batched_ingest_does_not_allocate() {
    let dir = std::env::temp_dir().join(format!("attrition_alloc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let monitor = ShardedMonitor::new(2, spec, StabilityParams::PAPER, 5);
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.sync_policy = SyncPolicy::Always;
    // Checkpoints allocate by design; disable both triggers so the
    // measured window exercises only append + group commit + apply.
    dcfg.checkpoint_every_requests = 0;
    dcfg.checkpoint_every = None;
    let engine = Engine::open(monitor, None, Some(&dcfg), 1).expect("engine opens");

    let mut scratch = BatchScratch::new();
    let mut out = String::new();

    // Warmup: grow every reusable buffer past its steady-state size.
    // Pending-item vectors grow by doubling, so pushing ~4.8k items per
    // customer leaves headroom far beyond what the measured batches add.
    for (buf, bounds) in &frames(600, 0) {
        out.clear();
        engine.respond_batch(&PackedLines::new(buf, bounds), &mut scratch, &mut out);
        assert!(out.starts_with("OKBATCH 8"), "warmup batch acked: {out}");
    }

    // Pre-render the measured frames before the window opens.
    let measured = frames(8, 3);

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for (buf, bounds) in &measured {
        out.clear();
        engine.respond_batch(&PackedLines::new(buf, bounds), &mut scratch, &mut out);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert!(out.starts_with("OKBATCH 8"), "measured batch acked: {out}");
    assert_eq!(
        allocs, 0,
        "steady-state batched INGEST allocated {allocs} time(s); the zero-alloc hot path regressed"
    );

    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    closing_requests_allocate_only_their_results();
}

/// Phase two: every measured `INGEST` closes one window of a customer
/// with 8 tracked items absent from it, then one `FLUSH` closes one more
/// window per customer. A fresh engine keeps the customers' window
/// counts known: the measured closes take them from 8 to 12 observed
/// windows, clear of the per-customer tables' doubling (the power table
/// and the count histogram reallocate at 4, 8, 16, … windows).
fn closing_requests_allocate_only_their_results() {
    const LOST_SLOTS: usize = 5;
    let dir = std::env::temp_dir().join(format!("attrition_alloc_close_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let monitor = ShardedMonitor::new(2, spec, StabilityParams::PAPER, LOST_SLOTS);
    let customers = [101u64, 102, 103, 104];
    let shards_used = (0..2)
        .filter(|&s| {
            customers
                .iter()
                .any(|&c| monitor.shard_of(CustomerId::new(c)) == s)
        })
        .count() as u64;
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.sync_policy = SyncPolicy::Always;
    dcfg.checkpoint_every_requests = 0;
    dcfg.checkpoint_every = None;
    let engine = Engine::open(monitor, None, Some(&dcfg), 1).expect("engine opens");
    let mut scratch = BatchScratch::new();
    let mut out = String::new();
    let run = |engine: &Engine,
               scratch: &mut BatchScratch,
               out: &mut String,
               (buf, bounds): &(String, Vec<(usize, usize)>)| {
        out.clear();
        engine.respond_batch(&PackedLines::new(buf, bounds), scratch, out);
        assert!(out.starts_with("OKBATCH"), "batch acked: {out}");
        assert!(!out.contains("ERR"), "batch member refused: {out}");
    };

    // Warmup: windows 0–8, ten items each, then only items 10 and 11
    // from window 6 on, so the closes at windows 7 and 8 fill every
    // shard's top-K scratch and the reply buffers reach full size.
    let all: Vec<u32> = (10..20).collect();
    for window in 0..9 {
        let items = if window < 6 { &all[..] } else { &all[..2] };
        let frame = ingest_frame(spec, &customers, window, items);
        run(&engine, &mut scratch, &mut out, &frame);
    }
    out.reserve(1 << 16);

    // Each member closes the customer's previous window (items 10 and
    // 11 only: 8 tracked items absent) and opens the next.
    let measured: Vec<_> = (9..12)
        .map(|window| ingest_frame(spec, &customers, window, &all[..2]))
        .collect();
    let flush_line = format!("FLUSH {}", spec.window_start(12));
    let flush = (flush_line.clone(), vec![(0, flush_line.len())]);

    let ingest_allocs = count_allocs(|| {
        for frame in &measured {
            run(&engine, &mut scratch, &mut out, frame);
        }
    });
    assert_eq!(out.matches("CLOSED").count(), customers.len());
    let flush_allocs = count_allocs(|| run(&engine, &mut scratch, &mut out, &flush));
    assert_eq!(out.matches("CLOSED").count(), customers.len());
    assert!(
        out.lines()
            .filter(|l| l.starts_with("CLOSED"))
            .all(|l| l.matches(',').count() == LOST_SLOTS - 1),
        "every close explains {LOST_SLOTS} lost items: {out}"
    );

    // A closing INGEST: the closed-window list, one exact-size
    // explanation for its one closed window, and the next window's
    // pending items.
    let closed_list = 1;
    let explanation = 1;
    let next_pending = 1;
    let closing_ingests = (measured.len() * customers.len()) as u64;
    assert_eq!(
        ingest_allocs,
        closing_ingests * (closed_list + explanation + next_pending),
        "closing INGESTs allocated {ingest_allocs} time(s) for {closing_ingests} members"
    );

    // The FLUSH: per shard holding customers, its id-ordered slot list
    // and its closed-window list; one exact-size explanation per closed
    // window; the list merged across shards. No list outgrows its first
    // allocation (four slots) here.
    let slot_lists = shards_used;
    let shard_lists = shards_used;
    let explanations = customers.len() as u64;
    let merged = 1;
    assert_eq!(
        flush_allocs,
        slot_lists + shard_lists + explanations + merged,
        "the closing FLUSH allocated {flush_allocs} time(s)"
    );

    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
