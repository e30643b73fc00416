//! The durable served workload: interactive transfers over loopback TCP.
//!
//! An `ssi-server` fronts an engine at SSI with group-commit durability and
//! 100,000 accounts. Each client session runs transfers: begin, two gets,
//! two puts, commit. The log lives on [`MemVfs`], so the log's seal, fsync
//! and park path runs in full while an fsync costs no device flush.

use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ssi_common::encoding::{decode_i64, encode_i64, KeyBuilder};
use ssi_common::rng::WorkloadRng;
use ssi_core::{Database, Durability, IsolationLevel, Options};
use ssi_obs::ServerMetrics;
use ssi_server::{Client, ClientError, ErrorCode, Server, ServerOptions};

use crate::affinity;
use crate::inproc::{client_seed, engine_options};
use crate::memvfs::MemVfs;
use crate::runner::{Outcome, Workload};
use crate::trace::{Name, Tracer};

pub const ACCOUNTS: u64 = 100_000;
pub const INITIAL_BALANCE: i64 = 10_000;
/// Rows per load transaction.
const LOAD_BATCH: u64 = 10_000;
/// The log is checkpointed, and its older segments reclaimed, after this
/// many bytes, so the in-memory log stays bounded.
pub const CHECKPOINT_EVERY_BYTES: u64 = 2 << 20;
const TABLE: &str = "accounts";
/// Name of the server's session worker threads (as cut to 15 bytes).
const WORKER_THREAD: &str = "ssi-server-conn";

/// Numbers the log directories of one process.
static LOG_DIRS: AtomicUsize = AtomicUsize::new(0);

fn account_key(id: u64) -> Vec<u8> {
    KeyBuilder::new().u64(id).build()
}

/// A fresh log directory under `base`. The engine takes its directory lock
/// (`wal.lock`) on the real filesystem, so each open needs a real directory
/// of its own; it holds nothing but that lock file.
fn fresh_dir(base: &Path) -> Result<PathBuf, String> {
    let dir = base.join(format!("log-{}", LOG_DIRS.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Engine options with the log in `dir` on `vfs`.
fn options(vfs: Arc<MemVfs>, dir: &Path) -> Options {
    let mut o = engine_options(IsolationLevel::SerializableSnapshotIsolation)
        .with_durability(Durability::GroupCommit, dir)
        .with_vfs(vfs);
    o.durability.checkpoint_every_bytes = Some(CHECKPOINT_EVERY_BYTES);
    o
}

pub struct Transfer {
    from: u64,
    to: u64,
    amount: i64,
}

pub struct ServedBench {
    server: Server,
    vfs: Arc<MemVfs>,
    base: PathBuf,
    dir: PathBuf,
    seed: u64,
}

pub struct SvClient {
    conn: Client,
    rng: WorkloadRng,
}

fn classify(e: &ClientError) -> Outcome {
    match e.code() {
        Some(ErrorCode::Aborted) => Outcome::Aborted,
        _ if e.is_retryable() => Outcome::Error,
        _ => Outcome::Fatal(e.to_string()),
    }
}

/// Every row of the accounts table, in key order.
fn accounts(db: &Database) -> Result<Vec<(Vec<u8>, i64)>, String> {
    let table = db.table(TABLE).map_err(|e| e.to_string())?;
    let mut txn = db.begin();
    let rows = txn
        .scan(&table, Bound::Unbounded, Bound::Unbounded)
        .map_err(|e| e.to_string())?;
    txn.commit().map_err(|e| e.to_string())?;
    Ok(rows.into_iter().map(|(k, v)| (k, decode_i64(&v))).collect())
}

impl ServedBench {
    /// Opens the durable engine, loads the accounts and starts the server.
    pub fn setup(seed: u64, base: &Path) -> Result<Self, String> {
        let vfs = Arc::new(MemVfs::default());
        let dir = fresh_dir(base)?;
        let db = Database::try_open(options(vfs.clone(), &dir)).map_err(|e| e.to_string())?;
        let table = db.create_table(TABLE).map_err(|e| e.to_string())?;
        let value = encode_i64(INITIAL_BALANCE);
        for start in (0..ACCOUNTS).step_by(LOAD_BATCH as usize) {
            let mut txn = db.begin();
            for id in start..(start + LOAD_BATCH).min(ACCOUNTS) {
                txn.put(&table, &account_key(id), &value)
                    .map_err(|e| e.to_string())?;
            }
            txn.commit().map_err(|e| e.to_string())?;
        }
        let server = Server::start(db, ServerOptions::default()).map_err(|e| e.to_string())?;
        // Before the clients connect; see `affinity::GC_NICE` for why.
        affinity::background_gc();
        Ok(ServedBench {
            server,
            vfs,
            base: base.to_path_buf(),
            dir,
            seed,
        })
    }

    /// Balances are conserved, and recovering from the synced part of the
    /// log gives exactly the live table: every acknowledged transfer is
    /// durable. Call once the clients have stopped. The live engine is shut
    /// down before the log is reopened, so the two never hold memory at once.
    pub fn check(self) -> Vec<String> {
        let mut failures = Vec::new();
        let live = match accounts(self.server.database()) {
            Ok(rows) => rows,
            Err(e) => return vec![format!("reading the live table: {e}")],
        };
        let total: i64 = live.iter().map(|(_, v)| v).sum();
        if total != ACCOUNTS as i64 * INITIAL_BALANCE || live.len() as u64 != ACCOUNTS {
            failures.push(format!(
                "balances not conserved: {} accounts hold {total}",
                live.len()
            ));
        }
        let image = fresh_dir(&self.base).map(|dir| {
            let image = Arc::new(self.vfs.crash_image(&self.dir, &dir));
            (image, dir)
        });
        drop(self);
        let recovered = image.and_then(|(image, dir)| {
            let db = Database::try_open(options(image, &dir)).map_err(|e| e.to_string())?;
            accounts(&db)
        });
        match recovered {
            Ok(rows) if rows == live => {}
            Ok(rows) => {
                let differ = rows.iter().zip(&live).filter(|(a, b)| a != b).count();
                failures.push(format!(
                    "reopened log differs from the acknowledged state: {} vs {} rows, {differ} differ",
                    rows.len(),
                    live.len()
                ));
            }
            Err(e) => failures.push(format!("reopening the log: {e}")),
        }
        failures
    }
}

impl Drop for ServedBench {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

impl Workload for ServedBench {
    type Client = SvClient;
    type Input = Transfer;

    /// Connects client `index` and pins its session worker to the CPU the
    /// client thread will run on.
    fn client(&self, index: usize) -> Result<SvClient, String> {
        let workers = affinity::threads_named(WORKER_THREAD);
        let mut conn = Client::connect(self.server.local_addr()).map_err(|e| e.to_string())?;
        // A reply means the session's worker thread is running.
        conn.ping().map_err(|e| e.to_string())?;
        for tid in affinity::threads_named(WORKER_THREAD) {
            if !workers.contains(&tid) {
                affinity::pin(tid, index);
            }
        }
        Ok(SvClient {
            conn,
            rng: WorkloadRng::new(client_seed(self.seed, index)),
        })
    }

    fn next_input(&self, c: &mut SvClient) -> Transfer {
        let from = c.rng.uniform(0, ACCOUNTS - 1);
        let to = (from + c.rng.uniform(1, ACCOUNTS - 1)) % ACCOUNTS;
        let amount = c.rng.uniform(1, 100) as i64;
        Transfer { from, to, amount }
    }

    fn attempt(&self, c: &mut SvClient, x: &Transfer, t: &mut Tracer) -> Outcome {
        let (from, to) = (account_key(x.from), account_key(x.to));
        let result = (|| {
            let mut txn = t.call(Name::ServerBegin, || c.conn.begin())?;
            let a = t.call(Name::ServerGet, || txn.get(TABLE, &from))?;
            let b = t.call(Name::ServerGet, || txn.get(TABLE, &to))?;
            let (Some(a), Some(b)) = (a, b) else {
                return Ok(Some("transfer read a missing account".to_string()));
            };
            let a = encode_i64(decode_i64(&a) - x.amount);
            let b = encode_i64(decode_i64(&b) + x.amount);
            t.call(Name::ServerPut, || txn.put(TABLE, &from, &a))?;
            t.call(Name::ServerPut, || txn.put(TABLE, &to, &b))?;
            t.call(Name::ServerCommit, || txn.commit())
                .inspect_err(|_| t.commit_failed())?;
            Ok(None)
        })();
        match result {
            Ok(None) => Outcome::Committed,
            Ok(Some(fatal)) => Outcome::Fatal(fatal),
            Err(e) => classify(&e),
        }
    }

    fn db(&self) -> &Database {
        self.server.database()
    }

    fn server_metrics(&self) -> Option<ServerMetrics> {
        Some(self.server.metrics())
    }
}
