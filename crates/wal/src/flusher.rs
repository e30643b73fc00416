//! The dedicated WAL flusher: a background loop that fsyncs the sealed
//! prefix of the log when the batch ages out or a size threshold trips.
//!
//! # Why a dedicated thread
//!
//! Committer-elected group commit (the [`crate::log::SyncPolicy::GroupCommit`]
//! default) amortizes fsyncs only as far as committers naturally pile up:
//! whichever committer finds no flush running syncs immediately, so under
//! light load every commit still pays a full device sync, and under heavy
//! load the batch is bounded by how many committers arrive *during* one
//! fsync. A dedicated flusher decouples the two: committers only seal and
//! park, and the flusher syncs when
//!
//! * the oldest unsynced record has waited [`FlusherConfig::max_delay`]
//!   (the latency bound an acknowledged commit pays at worst, plus one
//!   fsync), or
//! * [`FlusherConfig::max_batch_bytes`] have been sealed since the last
//!   sync (don't sit on a huge batch just because the clock says wait), or
//! * a flush is forced ([`crate::WalWriter::request_flush`] — tests
//!   single-stepping the thread, clean shutdown), or
//! * shutdown is requested (every remaining sealed record is drained
//!   before the loop exits, so close never strands an acknowledged or
//!   sealable commit).
//!
//! In buffered mode ([`crate::log::SyncPolicy::Never`]) nobody parks, but
//! the same loop bounds the crash-loss window: the tail of the log reaches
//! the device at most `max_delay` (plus one fsync) after it was sealed,
//! instead of "whenever the next checkpoint or clean close happens".
//!
//! # Protocol
//!
//! The loop is three phases driven entirely through [`crate::WalWriter`]
//! state (no channels): **wait for work** (something sealed or retired is
//! not yet durable), **let the batch age** (woken early by the size
//! threshold, force, or shutdown), **flush** (one pass over every retired
//! segment plus the current one, then advance `durable_ts` and wake the
//! parked committers).
//!
//! # Retry policy
//!
//! With the log's unsynced-frame buffer enabled, a flush-pass failure
//! classified *transient* or *out-of-space* (see [`crate::WalError`]) is
//! retried up to [`FlusherConfig::retry_budget`] times, sleeping
//! [`FlusherConfig::retry_backoff`] between attempts. The retry honours
//! the "fsync reports an error only once" rule: a file whose fsync failed
//! is never fsynced again — the buffered unsynced frames are re-emitted to
//! a *fresh* segment and the retry fsyncs that instead. An out-of-space
//! failure additionally triggers one checkpoint-to-reclaim attempt per
//! incident (pruning covered segments frees log space) before the backoff.
//! Only when the budget is exhausted — or the failure is fatal, or
//! buffering is off — does the loop poison the log, wake everyone (parked
//! committers observe the poison and error out, exactly like the
//! committer-elected path), and exit, since a poisoned log can never vouch
//! for durability again.
//!
//! The `observe` callback is the deterministic test hook: it fires at each
//! phase transition (see [`FlushEvent`]) and may block, so a test can
//! single-step the thread — same pattern as the transaction manager's
//! sweep-pause hook.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ssi_common::Timestamp;

use crate::error::{WalError, WalOp};
use crate::log::{FlusherWork, PoisonCause, WalWriter};

/// Tuning knobs of the dedicated flusher loop.
#[derive(Clone, Copy, Debug)]
pub struct FlusherConfig {
    /// Upper bound on how long a sealed record waits for its fsync — the
    /// latency an acknowledged group-commit pays at worst (plus the fsync
    /// itself and scheduling).
    pub max_delay: Duration,
    /// Flush early once this many bytes have been sealed since the last
    /// sync, regardless of age.
    pub max_batch_bytes: u64,
    /// How many times a transient (or reclaimable) flush failure is
    /// retried before the log is poisoned. Zero restores first-failure
    /// poisoning.
    pub retry_budget: u32,
    /// Sleep between retry attempts.
    pub retry_backoff: Duration,
}

impl Default for FlusherConfig {
    fn default() -> Self {
        FlusherConfig {
            max_delay: Duration::from_millis(2),
            max_batch_bytes: 1 << 20,
            retry_budget: 4,
            retry_backoff: Duration::from_millis(5),
        }
    }
}

/// Why a flush pass fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The oldest unsynced record reached [`FlusherConfig::max_delay`].
    AgedOut,
    /// [`FlusherConfig::max_batch_bytes`] were sealed since the last sync.
    BatchFull,
    /// [`crate::WalWriter::request_flush`] forced the pass.
    Forced,
    /// Shutdown drain: flush whatever is left, then exit.
    Shutdown,
}

/// Phase transitions of the flusher loop, reported through the `observe`
/// hook so tests can trace — and, by blocking in the hook, single-step —
/// the thread deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushEvent {
    /// Unsynced work was found; the batch window is open up to `target`.
    BatchOpened { target: Timestamp },
    /// A flush pass is about to run.
    Flushing { reason: FlushReason },
    /// A flush pass completed; everything `<= durable` is on the device.
    Flushed { durable: Timestamp },
    /// A flush pass failed retryably; attempt `attempt` of the budget is
    /// about to run (after reclaim/backoff and, for fsync failures,
    /// re-emission to a fresh segment).
    Retrying { attempt: u32 },
    /// The log is poisoned; the loop wakes all waiters and exits.
    Poisoned,
}

impl WalWriter {
    /// Runs the dedicated flusher until `shutdown` is set *and* everything
    /// sealed has been drained (or until the log is poisoned). Call from a
    /// background thread after [`WalWriter::attach_flusher`]; `observe`
    /// fires at each [`FlushEvent`] and may block (test single-stepping).
    pub fn flusher_loop(
        &self,
        config: &FlusherConfig,
        shutdown: &AtomicBool,
        observe: &mut dyn FnMut(FlushEvent),
    ) {
        debug_assert!(self.has_flusher(), "attach_flusher before flusher_loop");
        loop {
            match self.flusher_wait_for_work(shutdown) {
                FlusherWork::Shutdown => return,
                FlusherWork::Poisoned => {
                    observe(FlushEvent::Poisoned);
                    self.wake_committers();
                    return;
                }
                FlusherWork::Work => {}
            }
            observe(FlushEvent::BatchOpened {
                target: self.sealed_ts(),
            });
            // Batch-accumulation window: wait until the oldest unsynced
            // record ages out, letting more commits pile into the batch —
            // cut short by the size threshold, a forced flush, or shutdown.
            let reason = loop {
                if self.is_poisoned() {
                    break None;
                }
                // Consume a pending force *before* the shutdown check: a
                // leftover force flag with nothing to flush would otherwise
                // keep `flusher_wait_for_work` reporting work forever.
                let forced = self.take_force_flush();
                if shutdown.load(Ordering::Acquire) {
                    break Some(FlushReason::Shutdown);
                }
                if forced {
                    break Some(FlushReason::Forced);
                }
                if self.unsynced_batch_bytes() >= config.max_batch_bytes {
                    break Some(FlushReason::BatchFull);
                }
                match self.batch_age() {
                    // Work with no open window (a retired-only race):
                    // flush immediately rather than risk a stall.
                    None => break Some(FlushReason::AgedOut),
                    Some(age) if age >= config.max_delay => {
                        break Some(FlushReason::AgedOut);
                    }
                    Some(age) => self.flusher_wait_window(
                        config.max_delay - age,
                        shutdown,
                        config.max_batch_bytes,
                    ),
                }
            };
            let Some(reason) = reason else {
                observe(FlushEvent::Poisoned);
                self.wake_committers();
                return;
            };
            observe(FlushEvent::Flushing { reason });
            if !self.flush_with_retry(config, observe) {
                return;
            }
        }
    }

    /// One flush, retried per the budget. Returns false when the loop must
    /// exit (the log is poisoned — by this failure or someone else).
    fn flush_with_retry(
        &self,
        config: &FlusherConfig,
        observe: &mut dyn FnMut(FlushEvent),
    ) -> bool {
        let mut attempt: u32 = 0;
        let mut reclaim_attempted = false;
        // Set after an fsync failure: the errored file must never be
        // fsynced again, so the buffered frames are re-emitted to a fresh
        // segment before the next pass.
        let mut needs_reemit = false;
        loop {
            let result = if needs_reemit {
                self.reemit_unsynced()
            } else {
                Ok(())
            };
            let result: Result<Timestamp, WalError> = match result {
                Ok(()) => {
                    needs_reemit = false;
                    self.flush_pass()
                }
                Err(e) => Err(e),
            };
            let error = match result {
                Ok(durable) => {
                    observe(FlushEvent::Flushed { durable });
                    return true;
                }
                Err(e) => e,
            };
            if self.is_poisoned() {
                // The failure already poisoned the log (no buffering, or a
                // rollback failure) — or a test hook did. Either way the
                // pass woke nobody new; do it here and exit.
                observe(FlushEvent::Poisoned);
                self.wake_all();
                return false;
            }
            if error.op == WalOp::Fsync && self.buffers_unsynced() {
                needs_reemit = true;
            }
            if !error.is_retryable() || attempt >= config.retry_budget {
                self.poison_with(if error.is_reclaimable() {
                    PoisonCause::OutOfSpace
                } else {
                    PoisonCause::Io
                });
                observe(FlushEvent::Poisoned);
                self.wake_all();
                return false;
            }
            attempt += 1;
            self.stats().fsync_retries.fetch_add(1, Ordering::Relaxed);
            observe(FlushEvent::Retrying { attempt });
            if error.is_reclaimable() && !reclaim_attempted {
                // ENOSPC: try to free log space by checkpointing (prunes
                // covered segments) once per incident, then retry without
                // burning wall-clock on the backoff.
                reclaim_attempted = true;
                self.try_reclaim();
            } else {
                std::thread::sleep(config.retry_backoff);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::SyncPolicy;
    use crate::record::WriteEntry;
    use crate::testutil::temp_dir;
    use crate::vfs::{FaultMode, FaultOp, FaultRule, FaultVfs};
    use ssi_common::{TableId, TxnId};
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Mutex};

    fn entry(key: &[u8]) -> WriteEntry {
        WriteEntry {
            table: TableId(1),
            key: key.to_vec(),
            value: Some(b"v".to_vec()),
        }
    }

    /// Spawns the flusher loop; returns (shutdown flag, join handle, events).
    fn spawn_flusher(
        wal: &Arc<WalWriter>,
        config: FlusherConfig,
    ) -> (
        Arc<AtomicBool>,
        std::thread::JoinHandle<()>,
        Arc<Mutex<Vec<FlushEvent>>>,
    ) {
        wal.attach_flusher();
        let shutdown = Arc::new(AtomicBool::new(false));
        let events = Arc::new(Mutex::new(Vec::new()));
        let handle = {
            let wal = wal.clone();
            let shutdown = shutdown.clone();
            let events = events.clone();
            std::thread::spawn(move || {
                wal.flusher_loop(&config, &shutdown, &mut |e| {
                    events.lock().unwrap().push(e);
                });
            })
        };
        (shutdown, handle, events)
    }

    #[test]
    fn flusher_covers_parked_committers_and_drains_on_shutdown() {
        let dir = temp_dir("flusher-basic");
        let wal = Arc::new(WalWriter::open(&dir, 1, SyncPolicy::GroupCommit).unwrap());
        let config = FlusherConfig {
            max_delay: Duration::from_millis(5),
            ..FlusherConfig::default()
        };
        let (shutdown, handle, _events) = spawn_flusher(&wal, config);

        // 8 committer threads seal + park; the flusher must cover them all.
        let next_ts = Arc::new(AtomicU64::new(1));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let wal = wal.clone();
                let next_ts = next_ts.clone();
                s.spawn(move || {
                    for i in 0..10u64 {
                        let ts = next_ts.fetch_add(1, Ordering::Relaxed) + 1;
                        wal.submit(ts, TxnId(t * 100 + i), vec![entry(&ts.to_be_bytes())]);
                        wal.seal_upto(ts).unwrap();
                        wal.wait_durable(ts).unwrap();
                    }
                });
            }
        });
        assert_eq!(wal.stats().records.load(Ordering::Relaxed), 80);
        // Every fsync on this path came from the flusher, none from a
        // self-elected committer.
        let fsyncs = wal.stats().fsyncs.load(Ordering::Relaxed);
        let flusher_fsyncs = wal.stats().flusher_fsyncs.load(Ordering::Relaxed);
        assert!(fsyncs >= 1);
        assert_eq!(fsyncs, flusher_fsyncs, "a committer self-elected");
        // Clean path: the retry machinery must not have fired.
        assert_eq!(wal.stats().fsync_retries.load(Ordering::Relaxed), 0);
        assert_eq!(wal.stats().io_failures.load(Ordering::Relaxed), 0);

        shutdown.store(true, Ordering::Release);
        wal.request_flush();
        handle.join().unwrap();
        assert!(wal.durable_ts() >= wal.sealed_ts());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forced_flush_single_steps_an_idle_window() {
        let dir = temp_dir("flusher-force");
        let wal = Arc::new(WalWriter::open(&dir, 1, SyncPolicy::GroupCommit).unwrap());
        // Effectively-infinite window: only a force can trigger the pass.
        let config = FlusherConfig {
            max_delay: Duration::from_secs(3600),
            max_batch_bytes: u64::MAX,
            ..FlusherConfig::default()
        };
        let (shutdown, handle, events) = spawn_flusher(&wal, config);

        wal.submit(2, TxnId(1), vec![entry(b"a")]);
        wal.seal_upto(2).unwrap();
        // Sealed but not durable: the window is open and nothing fires.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(wal.durable_ts(), 0);

        wal.request_flush();
        // The forced pass must land; poll its effect.
        for _ in 0..200 {
            if wal.durable_ts() >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(wal.durable_ts() >= 2, "forced flush never landed");
        assert!(events.lock().unwrap().iter().any(|e| matches!(
            e,
            FlushEvent::Flushing {
                reason: FlushReason::Forced
            }
        )));

        shutdown.store(true, Ordering::Release);
        wal.request_flush();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_threshold_trips_before_the_window_ages_out() {
        let dir = temp_dir("flusher-size");
        let wal = Arc::new(WalWriter::open(&dir, 1, SyncPolicy::GroupCommit).unwrap());
        let config = FlusherConfig {
            max_delay: Duration::from_secs(3600),
            max_batch_bytes: 64,
            ..FlusherConfig::default()
        };
        let (shutdown, handle, events) = spawn_flusher(&wal, config);

        // One seal for all four records (~50 bytes each): sealing them one
        // at a time would let the flusher cut a batch early and strand an
        // odd record below the threshold until the window ages out.
        for ts in 2..6u64 {
            wal.submit(ts, TxnId(ts), vec![entry(&ts.to_be_bytes())]);
        }
        wal.seal_upto(5).unwrap();
        for _ in 0..200 {
            if wal.durable_ts() >= 5 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(wal.durable_ts() >= 5, "size threshold never tripped");
        assert!(events.lock().unwrap().iter().any(|e| matches!(
            e,
            FlushEvent::Flushing {
                reason: FlushReason::BatchFull
            }
        )));

        shutdown.store(true, Ordering::Release);
        wal.request_flush();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poison_wakes_parked_committers_with_errors_and_stops_the_loop() {
        let dir = temp_dir("flusher-poison");
        let wal = Arc::new(WalWriter::open(&dir, 1, SyncPolicy::GroupCommit).unwrap());
        let config = FlusherConfig {
            max_delay: Duration::from_secs(3600),
            max_batch_bytes: u64::MAX,
            ..FlusherConfig::default()
        };
        let (_shutdown, handle, events) = spawn_flusher(&wal, config);

        std::thread::scope(|s| {
            let mut committers = Vec::new();
            for ts in 2..6u64 {
                let wal = wal.clone();
                committers.push(s.spawn(move || {
                    wal.submit(ts, TxnId(ts), vec![entry(&ts.to_be_bytes())]);
                    wal.seal_upto(ts).unwrap();
                    wal.wait_durable(ts)
                }));
            }
            // Let them all seal and park (records counted at seal time).
            while wal.stats().records.load(Ordering::Relaxed) < 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
            wal.poison();
            for c in committers {
                let result = c.join().unwrap();
                assert!(result.is_err(), "a parked committer was acked after poison");
            }
        });
        handle.join().unwrap(); // the loop must exit on its own
        assert!(events
            .lock()
            .unwrap()
            .iter()
            .any(|e| matches!(e, FlushEvent::Poisoned)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_hands_the_old_segment_to_the_flusher() {
        let dir = temp_dir("flusher-rotate");
        let wal = Arc::new(WalWriter::open(&dir, 1, SyncPolicy::GroupCommit).unwrap());
        wal.attach_flusher();

        wal.submit(2, TxnId(1), vec![entry(b"a")]);
        wal.seal_upto(2).unwrap();
        let before = wal.stats().fsyncs.load(Ordering::Relaxed);
        // With a flusher attached, rotation itself must not fsync (the old
        // segment is queued instead) and must not advance durability.
        let (cut, old_seq) = wal.rotate(|| 2).unwrap();
        assert_eq!((cut, old_seq), (2, 1));
        assert_eq!(wal.current_segment(), 2);
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), before);
        assert_eq!(wal.durable_ts(), 0, "handoff must defer durability");

        // One flush pass covers the retired segment and the new one.
        let durable = wal.flush_pass().unwrap();
        assert!(durable >= 2, "retired segment not covered: {durable}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn buffered_mode_gets_a_periodic_sync_lag_bound() {
        let dir = temp_dir("flusher-buffered");
        let wal = Arc::new(WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap());
        let config = FlusherConfig {
            max_delay: Duration::from_millis(5),
            max_batch_bytes: u64::MAX,
            ..FlusherConfig::default()
        };
        let (shutdown, handle, _events) = spawn_flusher(&wal, config);

        // Buffered commits never wait, but the flusher must still push the
        // sealed tail to the device within the lag bound.
        wal.submit(2, TxnId(1), vec![entry(b"a")]);
        wal.seal_upto(2).unwrap();
        wal.wait_durable(2).unwrap(); // returns immediately in Never mode
        for _ in 0..400 {
            if wal.durable_ts() >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(wal.durable_ts() >= 2, "periodic sync never ran");
        assert!(wal.stats().flusher_fsyncs.load(Ordering::Relaxed) >= 1);

        shutdown.store(true, Ordering::Release);
        wal.request_flush();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_fsync_failure_is_retried_without_poisoning() {
        let dir = temp_dir("flusher-retry");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailTimes(2),
            std::io::ErrorKind::Interrupted,
        )
        .on_path("segment-")]);
        let wal = Arc::new(
            WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit, true).unwrap(),
        );
        let config = FlusherConfig {
            max_delay: Duration::from_millis(2),
            retry_backoff: Duration::from_millis(1),
            ..FlusherConfig::default()
        };
        let (shutdown, handle, events) = spawn_flusher(&wal, config);

        // The committer must be acknowledged despite two injected fsync
        // failures: the flusher retries by re-emission.
        wal.submit(2, TxnId(1), vec![entry(b"a")]);
        wal.seal_upto(2).unwrap();
        wal.wait_durable(2).unwrap();

        assert!(!wal.is_poisoned(), "transient faults must not poison");
        assert!(wal.stats().fsync_retries.load(Ordering::Relaxed) >= 1);
        assert!(events
            .lock()
            .unwrap()
            .iter()
            .any(|e| matches!(e, FlushEvent::Retrying { .. })));

        shutdown.store(true, Ordering::Release);
        wal.request_flush();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retry_budget_poisons_and_errors_parked_committers() {
        let dir = temp_dir("flusher-budget");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailAlways,
            std::io::ErrorKind::Interrupted,
        )
        .on_path("segment-")]);
        let wal = Arc::new(
            WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit, true).unwrap(),
        );
        let config = FlusherConfig {
            max_delay: Duration::from_millis(2),
            retry_budget: 3,
            retry_backoff: Duration::from_millis(1),
            ..FlusherConfig::default()
        };
        let (_shutdown, handle, events) = spawn_flusher(&wal, config);

        wal.submit(2, TxnId(1), vec![entry(b"a")]);
        wal.seal_upto(2).unwrap();
        let err = wal.wait_durable(2).unwrap_err();
        assert_eq!(err.kind, crate::error::WalErrorKind::Poisoned);
        assert_eq!(wal.poison_cause(), Some(PoisonCause::Io));

        handle.join().unwrap(); // loop exits after poisoning
        let events = events.lock().unwrap();
        let retries = events
            .iter()
            .filter(|e| matches!(e, FlushEvent::Retrying { .. }))
            .count();
        assert_eq!(retries, 3, "must exhaust exactly the budget");
        assert!(events.iter().any(|e| matches!(e, FlushEvent::Poisoned)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fatal_fsync_failure_poisons_immediately_despite_budget() {
        let dir = temp_dir("flusher-fatal");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailAlways,
            std::io::ErrorKind::PermissionDenied,
        )
        .on_path("segment-")]);
        let wal = Arc::new(
            WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit, true).unwrap(),
        );
        let config = FlusherConfig {
            max_delay: Duration::from_millis(2),
            retry_backoff: Duration::from_millis(1),
            ..FlusherConfig::default()
        };
        let (_shutdown, handle, events) = spawn_flusher(&wal, config);

        wal.submit(2, TxnId(1), vec![entry(b"a")]);
        wal.seal_upto(2).unwrap();
        assert!(wal.wait_durable(2).is_err());
        handle.join().unwrap();
        let events = events.lock().unwrap();
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, FlushEvent::Retrying { .. })),
            "fatal failures must not burn retries"
        );
        assert!(events.iter().any(|e| matches!(e, FlushEvent::Poisoned)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
