//! Round-trip and robustness suite for the binary monitor snapshot
//! (`ATTRMON1`), the one encoding monitor state is stored and shipped in.
//! Property tests over random ingest streams pin three contracts:
//!
//! 1. **Byte stability.** `restore_bytes(snapshot_bytes(m))` re-emits the
//!    identical bytes (and the identical text rendering).
//! 2. **Sharding commutes.** Merging the blocks of a partitioned monitor
//!    reproduces the whole monitor's snapshot byte for byte.
//! 3. **No panics on garbage.** `restore_bytes` returns a named
//!    [`RestoreError`] — never panics — on truncated, bit-flipped,
//!    wrong-version, and arbitrary random input.
//!
//! That a restored monitor also *scores* bit-identically from then on is
//! `tests/determinism.rs::snapshot_restore_bit_identical`.
//!
//! [`RestoreError`]: attrition_core::RestoreError

use attrition_core::{StabilityMonitor, StabilityParams, SNAPSHOT_MAGIC};
use attrition_store::WindowSpec;
use attrition_types::{Basket, CustomerId, Date};
use attrition_util::check::{forall, gen_vec};
use attrition_util::Rng;

fn d(y: i32, m: u32, day: u32) -> Date {
    Date::from_ymd(y, m, day).unwrap()
}

fn spec() -> WindowSpec {
    WindowSpec::months(d(2012, 5, 1), 1)
}

/// A date-sorted receipt stream: (customer, month offset, day, items).
fn gen_stream(rng: &mut Rng) -> Vec<(u64, i32, i32, Vec<u32>)> {
    let n_receipts = rng.usize_below(50);
    let mut stream: Vec<(u64, i32, i32, Vec<u32>)> = (0..n_receipts)
        .map(|_| {
            (
                rng.u64_below(8),
                rng.i64_in(0, 6) as i32,
                rng.i64_in(0, 27) as i32,
                gen_vec(rng, 0, 6, |rr| 1 + rr.u64_below(40) as u32),
            )
        })
        .collect();
    stream.sort_by_key(|&(customer, month, day, _)| (month, day, customer));
    stream
}

fn build(stream: &[(u64, i32, i32, Vec<u32>)]) -> StabilityMonitor {
    let mut monitor = StabilityMonitor::new(spec(), StabilityParams::PAPER);
    for (customer, month, day, items) in stream {
        let date = d(2012, 5, 1).add_months(*month) + *day;
        monitor.ingest(CustomerId::new(*customer), date, &Basket::from_raw(items));
    }
    monitor
}

/// Contract 1: the binary snapshot is a fixed point of its round-trip,
/// and the restored monitor renders the identical text.
#[test]
fn round_trips_are_byte_stable() {
    forall(64, gen_stream, |stream| {
        let monitor = build(stream);
        let bytes = monitor.snapshot_bytes();
        let restored = StabilityMonitor::restore_bytes(&bytes).expect("binary restores");
        assert_eq!(
            restored.snapshot_bytes(),
            bytes,
            "binary round-trip not byte-stable"
        );
        assert_eq!(restored.snapshot(), monitor.snapshot());
        assert_eq!(
            StabilityMonitor::restore_any(&bytes)
                .expect("restore_any is restore_bytes")
                .snapshot_bytes(),
            bytes
        );
    });
}

/// Contract 2: partitioning a monitor and merging the shards' blocks
/// reproduces the whole-monitor snapshot byte-for-byte.
#[test]
fn sharded_merge_equals_whole_snapshot() {
    forall(32, gen_stream, |stream| {
        let monitor = build(stream);
        let whole = monitor.snapshot_bytes();
        for n_shards in [1usize, 2, 3, 5] {
            let parts = build(stream).partition(n_shards, |customer| {
                (customer.raw() % n_shards as u64) as usize
            });
            assert_eq!(
                StabilityMonitor::merge_snapshot_bytes(parts.iter()),
                whole,
                "merge of {n_shards} shards diverged"
            );
        }
    });
}

/// Contract 3: every truncation of a valid binary snapshot fails with a
/// named error instead of panicking — and an 8-byte-aligned prefix must
/// not silently restore as a shorter-but-valid snapshot.
#[test]
fn truncated_binary_snapshots_fail_cleanly() {
    let stream = vec![
        (1u64, 0i32, 3i32, vec![4u32, 7, 9]),
        (2, 0, 9, vec![4]),
        (1, 1, 2, vec![7, 12]),
        (2, 1, 20, vec![4, 5]),
    ];
    let bytes = build(&stream).snapshot_bytes();
    assert!(bytes.len() > SNAPSHOT_MAGIC.len());
    for len in 0..bytes.len() {
        let err = StabilityMonitor::restore_bytes(&bytes[..len])
            .expect_err("every proper prefix must be rejected");
        let shown = err.to_string();
        assert!(
            shown.contains("monitor snapshot"),
            "unhelpful error at len {len}: {shown}"
        );
    }
}

/// Contract 3: single-bit flips anywhere in the payload either restore
/// to the identical state (flips confined to ignored padding do not
/// exist in this format — every byte is load-bearing) or fail cleanly.
/// No flip may panic, and no flip in the header/ids/counts may restore
/// to a *different* state that re-emits the original bytes.
#[test]
fn bit_flipped_binary_snapshots_never_panic() {
    let stream = vec![
        (1u64, 0i32, 3i32, vec![4u32, 7, 9]),
        (9, 0, 9, vec![4]),
        (1, 1, 2, vec![7, 12]),
        (9, 2, 20, vec![4, 5, 31]),
    ];
    let bytes = build(&stream).snapshot_bytes();
    forall(
        256,
        |rng| {
            let pos = rng.usize_below(bytes.len());
            let bit = rng.u64_below(8) as u32;
            (pos, bit)
        },
        |&(pos, bit)| {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            if let Ok(restored) = StabilityMonitor::restore_bytes(&corrupt) {
                // A flip that happens to decode must round-trip to the
                // *corrupted* bytes, never silently to the originals.
                assert_eq!(restored.snapshot_bytes(), corrupt);
            }
        },
    );
}

/// Contract 3: wrong version byte and foreign magic are named errors.
#[test]
fn wrong_version_and_magic_are_named_errors() {
    let bytes = build(&[(1, 0, 3, vec![4, 7])]).snapshot_bytes();

    let mut wrong_version = bytes.clone();
    wrong_version[7] = b'9'; // ATTRMON9
    let err = StabilityMonitor::restore_bytes(&wrong_version).unwrap_err();
    assert!(
        err.to_string().contains("unsupported snapshot version"),
        "{err}"
    );

    let mut wrong_magic = bytes;
    wrong_magic[0] = b'X';
    let err = StabilityMonitor::restore_bytes(&wrong_magic).unwrap_err();
    assert!(
        err.to_string().contains("not a binary monitor snapshot"),
        "{err}"
    );

    // The text rendering is for reading only: it is not a snapshot.
    let text = build(&[(1, 0, 3, vec![4, 7])]).snapshot();
    let err = StabilityMonitor::restore_bytes(text.as_bytes()).unwrap_err();
    assert!(
        err.to_string().contains("not a binary monitor snapshot"),
        "{err}"
    );
}

/// Contract 3, fuzzed: arbitrary byte soup — raw, and grafted behind a
/// valid magic so the header/body parsers (not just the magic check)
/// absorb it — never panics.
#[test]
fn restore_never_panics_on_arbitrary_bytes() {
    forall(
        512,
        |rng| {
            let mut bytes = gen_vec(rng, 0, 200, |r| r.u64_below(256) as u8);
            if rng.u64_below(2) == 0 {
                // Half the cases: valid magic, garbage payload.
                let mut prefixed = SNAPSHOT_MAGIC.to_vec();
                prefixed.append(&mut bytes);
                bytes = prefixed;
            }
            bytes
        },
        |bytes| {
            let _ = StabilityMonitor::restore_bytes(bytes);
        },
    );
}

/// The degenerate monitor — no customers at all — round-trips.
#[test]
fn empty_monitor_round_trips() {
    let monitor = StabilityMonitor::new(spec(), StabilityParams::PAPER);
    let bytes = monitor.snapshot_bytes();
    let restored = StabilityMonitor::restore_bytes(&bytes).unwrap();
    assert_eq!(restored.snapshot_bytes(), bytes);
    assert_eq!(restored.snapshot(), monitor.snapshot());
    assert_eq!(restored.num_customers(), 0);
}
