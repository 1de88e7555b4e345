//! In-process fault injection for the durability layer.
//!
//! A [`FaultPlan`] is handed to the [`Wal`](crate::wal::Wal) (directly,
//! or through
//! [`DurabilityConfig::fault_plan`](crate::server::DurabilityConfig))
//! and deterministically breaks it at a chosen point:
//!
//! - **fail the group write holding the Nth append** — nothing is
//!   written and the WAL dies: the frame's members are applied, none is
//!   acked, and the node stops;
//! - **crash after the Nth append** — once the commit of the group
//!   holding the Nth append has synced, the log freezes exactly as a
//!   `SIGKILL` would leave it (every later append, sync and checkpoint
//!   fails), so a test can drop the server and recover from the files;
//! - **tear the tail at the crash** — additionally cuts the file
//!   `torn_tail_bytes` short of the log's logical end, simulating a torn
//!   final frame that the CRC framing must detect and truncate during
//!   recovery;
//! - **fail the sync of sequence number N** — the first fsync that would
//!   make record N durable returns an injected error, leaving the record
//!   in the file unsynced and the log dead, as a real failed fsync does.
//!
//! The plan lives in the production types rather than behind a `cfg`
//! gate so integration tests (and future chaos tooling) can drive it
//! against a real listening server; a default plan injects nothing.
//!
//! ## Seed-driven schedules
//!
//! Beyond the deterministic one-shots above, a plan carries a
//! `seed` and a set of per-mille *rates* that turn it into a stochastic
//! schedule: every consumer (the WAL for disk faults, the simulator's
//! transport for network faults, the simulator's driver for
//! crash-restarts) derives its own [`SplitMix64`] stream from the seed,
//! so one `u64` reproduces the entire fault interleaving bit-for-bit.
//! The rates cover the failure modes the deterministic crash tests
//! cannot enumerate: clean and torn (partial) group writes, drawn once
//! per write and fatal to the WAL, process death between a group's
//! write and its fsync, message drop/duplicate/delay (reordering falls
//! out of random delays), and crash-restart at event boundaries.
//!
//! [`SplitMix64`]: crate::env::SplitMix64

use crate::env::SplitMix64;

/// Deterministic failure schedule for one WAL instance (the `fail_*` /
/// `crash_*` one-shots) plus a seed-driven stochastic schedule shared
/// with the simulator (the `*_per_mille` rates).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the group write that holds this append (1-based count of
    /// appends) with an injected error, writing nothing; the WAL dies.
    pub fail_append: Option<u64>,
    /// After this many *successful* appends, simulate process death at
    /// the end of the commit that covers the last of them (after its
    /// sync, so that group is acked): the WAL enters a crashed state
    /// where every subsequent append, sync and checkpoint returns an
    /// error.
    pub crash_after_appends: Option<u64>,
    /// At the simulated crash, cut the file this many bytes short of
    /// the log's logical end (the end of its last frame, not the zero
    /// extent past it) — a torn final frame for recovery to detect.
    pub torn_tail_bytes: u64,
    /// Fail the first fsync attempted while this sequence number is
    /// appended but not yet durable, with an injected error and nothing
    /// synced; the WAL dies of it. A WAL reopened past this sequence
    /// number never fires it.
    pub fail_sync_seq: Option<u64>,
    /// Seed of the stochastic schedule below (ignored when every rate
    /// is zero).
    pub seed: u64,
    /// Rate (per 1000 group writes) of clean injected write failures:
    /// nothing reaches the file, the commit fails and the WAL dies.
    pub fail_append_per_mille: u32,
    /// Rate (per 1000 group writes) of *torn* writes: a seeded prefix of
    /// the group's frames reaches the file before the error, the WAL
    /// dies, and recovery must cut the torn tail.
    pub torn_append_per_mille: u32,
    /// Rate (per 1000 messages) of message drops on the simulated
    /// transport, either direction.
    pub drop_per_mille: u32,
    /// Rate (per 1000 messages) of message duplication on the simulated
    /// transport.
    pub dup_per_mille: u32,
    /// Rate (per 1000 messages) of extra delivery delay (which is also
    /// what reorders messages relative to each other).
    pub delay_per_mille: u32,
    /// Rate (per 1000 client operations) of a crash-restart of the
    /// whole server at that event boundary (simulator only).
    pub crash_per_mille: u32,
    /// Rate (per 1000 group commits with records pending) of process
    /// death *between* a batch's group write and its fsync — the window
    /// where a whole batch is in the file but none of it is durable and
    /// none of it was acked.
    pub crash_commit_per_mille: u32,
}

impl FaultPlan {
    /// A plan that injects nothing (what production runs use implicitly).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fail the group write holding the `n`th append (1-based).
    pub fn fail_append(n: u64) -> FaultPlan {
        FaultPlan {
            fail_append: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Crash (freeze the log) after `n` successful appends.
    pub fn crash_after(n: u64) -> FaultPlan {
        FaultPlan {
            crash_after_appends: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Crash after `n` successful appends, tearing the final `bytes`
    /// bytes off the file.
    pub fn crash_after_torn(n: u64, bytes: u64) -> FaultPlan {
        FaultPlan {
            crash_after_appends: Some(n),
            torn_tail_bytes: bytes,
            ..FaultPlan::default()
        }
    }

    /// Fail the fsync that would first make record `seq` durable.
    pub fn fail_sync_seq(seq: u64) -> FaultPlan {
        FaultPlan {
            fail_sync_seq: Some(seq),
            ..FaultPlan::default()
        }
    }

    /// A stochastic schedule from a single seed with moderate default
    /// rates for every fault class — the simulator's bread and butter.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fail_append_per_mille: 20,
            torn_append_per_mille: 20,
            drop_per_mille: 30,
            dup_per_mille: 20,
            delay_per_mille: 100,
            crash_per_mille: 15,
            crash_commit_per_mille: 12,
            ..FaultPlan::default()
        }
    }

    /// Draw: should this group write fail cleanly (nothing written)?
    pub fn failed_append(&self, rng: &mut SplitMix64) -> bool {
        self.fail_append_per_mille != 0 && rng.per_mille(self.fail_append_per_mille)
    }

    /// Draw: should this group write tear (a prefix written, then error)?
    pub fn torn_append(&self, rng: &mut SplitMix64) -> bool {
        self.torn_append_per_mille != 0 && rng.per_mille(self.torn_append_per_mille)
    }

    /// Draw: should the transport drop this message?
    pub fn drop_message(&self, rng: &mut SplitMix64) -> bool {
        self.drop_per_mille != 0 && rng.per_mille(self.drop_per_mille)
    }

    /// Draw: should the transport duplicate this message?
    pub fn duplicate_message(&self, rng: &mut SplitMix64) -> bool {
        self.dup_per_mille != 0 && rng.per_mille(self.dup_per_mille)
    }

    /// Draw: should the transport add extra delay to this message?
    pub fn delay_message(&self, rng: &mut SplitMix64) -> bool {
        self.delay_per_mille != 0 && rng.per_mille(self.delay_per_mille)
    }

    /// Draw: should the server crash-restart at this event boundary?
    pub fn crash_now(&self, rng: &mut SplitMix64) -> bool {
        self.crash_per_mille != 0 && rng.per_mille(self.crash_per_mille)
    }

    /// Draw: should the process die between a group's write and its
    /// fsync?
    pub fn crash_mid_commit(&self, rng: &mut SplitMix64) -> bool {
        self.crash_commit_per_mille != 0 && rng.per_mille(self.crash_commit_per_mille)
    }
}

/// The error kind used for every injected failure, so tests (and error
/// messages) can tell scheduled faults from real I/O problems.
pub fn injected_error(what: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {what}"))
}
