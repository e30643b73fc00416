//! Durability subsystem: an append-only redo log with group commit, fuzzy
//! checkpoints and crash recovery.
//!
//! The paper's prototypes live inside real storage engines (Berkeley DB,
//! InnoDB) where "commit" means *durable* commit. This crate gives the
//! in-memory engine in `ssi-core`/`ssi-storage` the same property: committed
//! write sets are persisted to an on-disk redo log before (or, in buffered
//! mode, shortly after) `commit` returns, and a crashed database can be
//! reopened and recovered to a prefix-consistent committed state.
//!
//! # On-disk layout
//!
//! A durable database lives in one directory:
//!
//! ```text
//! <dir>/segment-<seq>.wal     append-only redo log segments, seq ascending
//! <dir>/snapshot-<ts>.ckpt    checkpoint snapshots (newest is authoritative)
//! <dir>/snapshot-<ts>.tmp     in-flight checkpoint (ignored — and deleted —
//!                             by recovery)
//! ```
//!
//! All file I/O goes through the pluggable [`Vfs`] trait ([`vfs`] module):
//! production uses [`StdVfs`] (a `std::fs` passthrough behind one pointer
//! hop), tests use [`FaultVfs`] to execute deterministic scripted fault
//! schedules against the exact same code paths, and benchmarks use
//! [`MemVfs`] to run the log without a disk.
//!
//! # Record format
//!
//! Log segments are a sequence of CRC-framed records:
//!
//! ```text
//! frame   := [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload := kind: u8, then per kind:
//!   kind 1 (commit)       [commit_ts: u64] [txn_id: u64] [n_writes: u32]
//!                         n_writes * ( [table_id: u32] [key_len: u32] [key]
//!                                      [has_value: u8] [val_len: u32] [val] )
//!   kind 2 (create table) [table_id: u32] [name_len: u32] [name: utf-8]
//! ```
//!
//! A write entry with `has_value = 0` is a deletion tombstone. All integers
//! are little-endian; `crc32` is the IEEE polynomial. A reader stops at the
//! first frame whose length is implausible, whose payload is cut short by
//! end-of-file, or whose CRC does not match — everything before that point
//! is a valid prefix, everything after is a torn tail and is discarded.
//! Commit records are whole-transaction: a transaction is either replayed
//! completely or not at all, so truncating the log at *any* byte recovers a
//! prefix-consistent committed state.
//!
//! # Group-commit protocol
//!
//! Appending is coordinated with the commit pipeline's deposit-drain
//! timestamp publication (see `ssi-core`'s manager docs), which already
//! orders commits by timestamp with no global lock:
//!
//! 1. **submit** — after the commit-time checks pass and the write set is
//!    stamped, but *before* the commit timestamp is deposited for
//!    publication, the committer encodes its commit record and parks it in
//!    the log's pending buffer keyed by commit timestamp. No file I/O.
//! 2. **seal** — once `publish` returns (the snapshot clock covers the
//!    commit timestamp), the committer calls [`WalWriter::seal_upto`] with
//!    its own timestamp. Because every commit submits before it deposits,
//!    `clock >= ts` implies every record with timestamp `<= ts` is already
//!    in the pending buffer, so sealing appends a *timestamp-ordered* run
//!    of whole records to the segment file — publication order gives the
//!    log its order for free, with no extra coordination.
//! 3. **sync** — in [`SyncPolicy::GroupCommit`] the committer then waits
//!    for a flush covering its timestamp: whichever committer finds no
//!    flush in progress becomes the flusher for *everything sealed so far*
//!    (one `fsync` for the whole batch — classic group commit); everyone
//!    else parks on a condvar until a flush covers them. Under load, many
//!    commits share one `fsync`. [`SyncPolicy::Never`] (buffered mode)
//!    skips this step entirely; the data reaches the OS on seal and the
//!    device on checkpoint or clean close.
//!
//! With a **dedicated flusher** attached ([`WalWriter::attach_flusher`] +
//! a thread running [`flusher`]'s loop), step 3 changes: committers never
//! self-elect — they park until the flusher's batch ages out
//! ([`FlusherConfig::max_delay`]) or fills up, so the batch size is no
//! longer bounded by natural committer pile-up; buffered mode gains a
//! periodic-sync lag bound; and segment rotation hands the old segment to
//! the flusher instead of fsyncing it under the append lock (protocol in
//! the [`flusher`] module docs and on [`WalWriter::rotate`]).
//!
//! # Failure handling
//!
//! Every failure is classified by the [`WalError`] taxonomy ([`error`]
//! module) as *transient*, *out-of-space*, or *fatal*. A partial append is
//! rolled back to the last whole-frame boundary and the record returned to
//! the pending buffer (its committer can still seal it later). With a
//! dedicated flusher and frame buffering enabled, transient failures are
//! retried with backoff inside a bounded budget — honouring the "fsync
//! reports an error only once" rule: a range whose first fsync errored is
//! never re-fsynced in place; instead the still-buffered unsynced frames
//! are re-emitted to a *fresh* segment and that is fsynced. ENOSPC gets
//! one checkpoint-to-reclaim attempt (pruning covered segments frees log
//! space) before counting against the budget. Only when the budget is
//! exhausted — or on a fatal error, or without a flusher to retry — is the
//! log *poisoned*: every further append and durability wait fails, so no
//! commit is ever acknowledged that recovery might silently discard.
//!
//! ## Failure-mode matrix
//!
//! What each injected fault class guarantees, per durability mode
//! (`Off` has no WAL and is unaffected by storage faults by definition):
//!
//! | Fault | `Buffered` | `GroupCommit` (+ flusher) | Guarantee |
//! |---|---|---|---|
//! | transient append (`EINTR`…) | seal deferred, flusher re-seals | same; commit acks after retried flush covers it | no ack lost; retries visible in stats |
//! | transient fsync | flusher re-emits unsynced frames to a fresh segment, fsyncs that | same; committers stay parked until durable | never re-fsync an errored range; no ack lost |
//! | short write (torn append) | rolled back to frame boundary, record re-pended | same | segment stays frame-aligned; commit still seals later |
//! | ENOSPC | checkpoint-to-reclaim once, then retry budget | same | reclaim prunes covered segments; degrade only if still full |
//! | failed rename (checkpoint) | checkpoint fails, `.tmp` removed, old snapshot authoritative | same | no torn snapshot ever authoritative; no `.tmp` leak |
//! | fatal fsync / exhausted budget | log poisoned → `Degraded(ReadOnly)` | same, parked committers woken with typed error | acknowledged prefix recoverable; reads keep serving |
//! | crash at any byte | torn tail truncated on recovery | same | prefix-consistent committed state |
//!
//! # Checkpoint / recovery invariants
//!
//! A checkpoint at timestamp `C` ([`Checkpointer`]) maintains:
//!
//! * **cut** — `C` is read from the published snapshot clock *under the log's
//!   append lock* during segment rotation, so every record with `ts <= C` is
//!   in a pre-rotation segment and every record with `ts > C` lands in a
//!   post-rotation segment;
//! * **fuzzy snapshot** — the tables are scanned at snapshot `C` *while
//!   commits continue*; per-row visibility is atomic (chain locks), and rows
//!   committed after `C` are simply not visible to the snapshot, so the
//!   snapshot is exactly the committed state at `C`;
//! * **atomicity** — the snapshot is written to a `.tmp` file, fsynced, and
//!   renamed into place (then the directory is fsynced); a crash mid-
//!   checkpoint leaves the previous snapshot authoritative, and a *failed*
//!   checkpoint removes its own `.tmp` file;
//! * **truncation** — only after the new snapshot is durable are the
//!   pre-rotation segments and older snapshots deleted.
//!
//! Recovery ([`recover_into`]) deletes orphaned `.tmp` files, loads the
//! newest valid snapshot, replays every whole commit record with `ts >` the
//! snapshot timestamp from the remaining segments in timestamp order
//! (deduplicating by commit timestamp, since retried flushes may have
//! re-emitted frames into more than one segment), and reports the highest
//! committed timestamp so the engine can restore its commit/begin clocks.
//! Replayed versions are installed committed-at-their-original-timestamp,
//! so recovery is idempotent: recovering the same directory twice produces
//! the same state.

pub mod checkpoint;
pub mod error;
pub mod flusher;
pub mod log;
pub mod record;
pub mod recover;
pub mod vfs;

pub use checkpoint::{CheckpointStats, Checkpointer};
pub use error::{classify, WalError, WalErrorKind, WalOp, WalResult};
pub use flusher::{FlushEvent, FlushReason, FlusherConfig};
pub use log::{PoisonCause, PreparedCommit, SyncPolicy, WalStats, WalWriter};
pub use record::{crc32, CommitRecord, Record, WriteEntry};
pub use recover::{recover_into, recover_into_with, Recovered};
pub use vfs::{FaultMode, FaultOp, FaultRule, FaultVfs, MemVfs, StdVfs, Vfs, VfsFile};

use std::path::{Path, PathBuf};

/// Name of a log segment file.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("segment-{seq:010}.wal"))
}

/// Name of a checkpoint snapshot file.
pub(crate) fn snapshot_path(dir: &Path, ts: u64) -> PathBuf {
    dir.join(format!("snapshot-{ts:016x}.ckpt"))
}

/// Parses `segment-<seq>.wal` file names; returns the sequence number.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let seq = name.strip_prefix("segment-")?.strip_suffix(".wal")?;
    seq.parse().ok()
}

/// Parses `snapshot-<ts>.ckpt` file names; returns the checkpoint timestamp.
pub(crate) fn parse_snapshot_name(name: &str) -> Option<u64> {
    let ts = name.strip_prefix("snapshot-")?.strip_suffix(".ckpt")?;
    u64::from_str_radix(ts, 16).ok()
}

/// True for in-flight checkpoint temp files (`snapshot-*.tmp`). A crashed
/// or failed checkpoint can leave one behind; recovery deletes them.
pub(crate) fn is_snapshot_tmp_name(name: &str) -> bool {
    name.strip_prefix("snapshot-")
        .and_then(|rest| rest.strip_suffix(".tmp"))
        .is_some()
}

/// Lists `(seq, path)` of all log segments in `dir`, ascending by seq.
pub(crate) fn list_segments(vfs: &dyn Vfs, dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for name in vfs.read_dir(dir)? {
        if let Some(seq) = parse_segment_name(&name) {
            segments.push((seq, dir.join(name)));
        }
    }
    segments.sort();
    Ok(segments)
}

/// Lists `(ts, path)` of all snapshot files in `dir`, ascending by ts.
pub(crate) fn list_snapshots(vfs: &dyn Vfs, dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut snapshots = Vec::new();
    for name in vfs.read_dir(dir)? {
        if let Some(ts) = parse_snapshot_name(&name) {
            snapshots.push((ts, dir.join(name)));
        }
    }
    snapshots.sort();
    Ok(snapshots)
}

/// Takes the advisory lock guarding a durable directory against double
/// opens. Two log writers appending to the same segment would interleave
/// frames into CRC garbage, silently truncating acknowledged commits at
/// the next recovery — so the whole open/recover/append lifecycle must be
/// exclusive. The returned handle holds an OS file lock (`flock`-style):
/// dropping it — or the process dying — releases it, so a crash never
/// leaves a stale lock behind.
///
/// The lock intentionally stays on raw `std::fs` rather than the [`Vfs`]:
/// it guards *this process's* access to the directory, and injecting
/// faults into it would only fabricate failure modes the OS lock API does
/// not have.
pub fn lock_dir(dir: &Path) -> WalResult<std::fs::File> {
    let lock_path = dir.join("wal.lock");
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&lock_path)
        .map_err(|e| WalError::io(WalOp::Lock, &lock_path, e))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(WalError::locked(&lock_path)),
        Err(std::fs::TryLockError::Error(e)) => Err(WalError::io(WalOp::Lock, &lock_path, e)),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A fresh, unique temp directory for one test.
    pub fn temp_dir(tag: &str) -> PathBuf {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ssi-wal-test-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_name_roundtrip() {
        let dir = Path::new("/x");
        let seg = segment_path(dir, 7);
        assert_eq!(
            parse_segment_name(seg.file_name().unwrap().to_str().unwrap()),
            Some(7)
        );
        let snap = snapshot_path(dir, 0xabcd);
        assert_eq!(
            parse_snapshot_name(snap.file_name().unwrap().to_str().unwrap()),
            Some(0xabcd)
        );
        assert_eq!(parse_segment_name("snapshot-1.ckpt"), None);
        assert_eq!(parse_snapshot_name("segment-1.wal"), None);
        assert_eq!(parse_snapshot_name("snapshot-zz.ckpt"), None);
        assert!(is_snapshot_tmp_name("snapshot-00ff.tmp"));
        assert!(!is_snapshot_tmp_name("snapshot-00ff.ckpt"));
        assert!(!is_snapshot_tmp_name("segment-1.wal"));
    }

    #[test]
    fn double_lock_is_typed_locked() {
        let dir = testutil::temp_dir("lock");
        let first = lock_dir(&dir).unwrap();
        let second = lock_dir(&dir).unwrap_err();
        assert_eq!(second.kind, WalErrorKind::Locked);
        drop(first);
        lock_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
