//! Pluggable storage layer for the durability subsystem.
//!
//! Every file operation the WAL, checkpointer and recovery perform goes
//! through the object-safe [`Vfs`] trait. Production uses [`StdVfs`]
//! (thin `std::fs` passthrough — one pointer hop via `Arc<dyn Vfs>`, no
//! other overhead). Tests use [`FaultVfs`], which wraps any inner `Vfs`
//! and executes a deterministic, scripted schedule of injected failures:
//! fail the Nth fsync once or persistently, short-write at byte `k`,
//! ENOSPC after a byte budget, fail a rename, delay an op. [`MemVfs`]
//! keeps every file in memory, so benchmarks run the log without
//! touching a disk (wrap it in a `FaultVfs` delay rule to give each fsync
//! a fixed device latency).
//!
//! Injection is deterministic by construction: rules fire based on
//! per-operation counters, not wall clock or randomness, so a failing
//! schedule replays exactly from its seed.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// An open writable file handle. Object-safe; all mutation goes through
/// `&self` so handles can be shared behind `Arc` like `std::fs::File`.
pub trait VfsFile: Send + Sync {
    /// Appends `buf` in full at the current end of file.
    fn write_all(&self, buf: &[u8]) -> io::Result<()>;
    /// Durably flushes file contents and metadata to the device.
    fn sync_all(&self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Current on-disk length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// True when the file is empty.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// The filesystem surface the durability subsystem needs. Object-safe so
/// implementations can be layered (fault injection wraps std).
pub trait Vfs: Send + Sync {
    /// Creates (or opens, if a crashed earlier open left one behind) a
    /// file in append mode.
    fn create_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>>;
    /// Creates or truncates a file for writing.
    fn create_truncate(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>>;
    /// Opens an existing file for writing (used to cut torn tails).
    fn open_write(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>>;
    /// Reads an entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Lists the file names (not full paths) in a directory.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Durably flushes directory metadata (entry creation / rename).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Creates a directory and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// Production [`Vfs`]: direct `std::fs` passthrough.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl StdVfs {
    /// A shared handle to the production VFS.
    pub fn handle() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

struct StdFile(File);

impl VfsFile for StdFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        (&self.0).write_all(buf)
    }

    fn sync_all(&self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl Vfs for StdVfs {
    fn create_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Arc::new(StdFile(file)))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        Ok(Arc::new(StdFile(file)))
    }

    fn open_write(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        let file = OpenOptions::new().write(true).open(path)?;
        Ok(Arc::new(StdFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut file = File::open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Some filesystems (and all of Windows) refuse to fsync a
        // directory handle; crash-consistency of the entry is then the
        // platform's problem, not an error we can act on.
        match File::open(dir).and_then(|d| d.sync_all()) {
            Ok(()) => Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Unsupported | io::ErrorKind::InvalidInput
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

/// In-memory [`Vfs`]: every file is a byte vector owned by this value, so
/// writes and `sync_all` touch no disk. Directories are implicit — a file
/// path's parent is its directory — and directory entries (create, rename,
/// remove) take effect at once. Reopening a database on the same `MemVfs`
/// recovers from exactly the bytes written so far.
#[derive(Default)]
pub struct MemVfs {
    files: Mutex<BTreeMap<PathBuf, Arc<MemFile>>>,
}

#[derive(Default)]
struct MemFile(Mutex<Vec<u8>>);

impl VfsFile for MemFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        self.0.lock().extend_from_slice(buf);
        Ok(())
    }

    fn sync_all(&self) -> io::Result<()> {
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.lock().resize(len as usize, 0);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.lock().len() as u64)
    }
}

impl MemVfs {
    fn file(&self, path: &Path) -> io::Result<Arc<MemFile>> {
        self.files
            .lock()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl Vfs for MemVfs {
    fn create_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        Ok(self
            .files
            .lock()
            .entry(path.to_path_buf())
            .or_default()
            .clone())
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        let file = self.create_append(path)?;
        file.set_len(0)?;
        Ok(file)
    }

    fn open_write(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        Ok(self.file(path)?)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        Ok(self.file(path)?.0.lock().clone())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        Ok(self
            .files
            .lock()
            .keys()
            .filter(|path| path.parent() == Some(dir))
            .filter_map(|path| Some(path.file_name()?.to_str()?.to_string()))
            .collect())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files.lock();
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.files
            .lock()
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// The operation class a [`FaultRule`] targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// File-content writes (`write_all`).
    Write,
    /// File fsyncs (`sync_all`).
    Fsync,
    /// Renames.
    Rename,
    /// File removals.
    Remove,
    /// Directory fsyncs.
    DirSync,
    /// File creation/open.
    Create,
    /// Whole-file reads.
    Read,
}

impl FaultOp {
    fn label(self) -> &'static str {
        match self {
            FaultOp::Write => "write",
            FaultOp::Fsync => "fsync",
            FaultOp::Rename => "rename",
            FaultOp::Remove => "remove",
            FaultOp::DirSync => "dir-sync",
            FaultOp::Create => "create",
            FaultOp::Read => "read",
        }
    }
}

/// How a matched rule misbehaves.
#[derive(Clone, Debug)]
pub enum FaultMode {
    /// Fail exactly one matching call, then never again.
    FailOnce,
    /// Fail the next `n` matching calls.
    FailTimes(u32),
    /// Fail every matching call forever.
    FailAlways,
    /// Write only the first `bytes` bytes of the buffer, then error.
    /// Exercises the torn-append rollback path. Applies to `Write` only.
    ShortWrite {
        /// Bytes actually written before the failure.
        bytes: usize,
    },
    /// Global byte budget: once cumulative bytes written through this
    /// VFS exceed `bytes`, every matching write fails with the rule's
    /// error kind (typically `StorageFull`). Removing a file refunds its
    /// length, modelling checkpoint-to-reclaim.
    NoSpaceAfter {
        /// Cumulative write budget in bytes.
        bytes: u64,
    },
    /// Delay the operation (then let it succeed). For shaking out
    /// timing-dependent paths, not error handling.
    Delay {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

/// One scripted fault: which op class it targets, an optional path
/// substring filter, how many matching calls to let through first, and
/// the failure mode + error kind to inject.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Operation class this rule applies to.
    pub op: FaultOp,
    /// Only paths whose string form contains this substring match.
    pub path_contains: Option<String>,
    /// Number of matching calls to let succeed before the rule arms.
    pub after: u64,
    /// Failure behaviour once armed.
    pub mode: FaultMode,
    /// The `io::ErrorKind` of injected errors — pick `Interrupted` for
    /// transient, `StorageFull` for ENOSPC, `Other` for fatal.
    pub kind: io::ErrorKind,
}

impl FaultRule {
    /// A rule failing `op` on paths containing `path_contains`, starting
    /// with the first matching call.
    pub fn new(op: FaultOp, mode: FaultMode, kind: io::ErrorKind) -> Self {
        FaultRule {
            op,
            path_contains: None,
            after: 0,
            mode,
            kind,
        }
    }

    /// Restricts the rule to paths containing `needle`.
    pub fn on_path(mut self, needle: impl Into<String>) -> Self {
        self.path_contains = Some(needle.into());
        self
    }

    /// Lets the first `n` matching calls succeed before arming.
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }
}

struct RuleState {
    rule: FaultRule,
    seen: u64,
    fired: u32,
}

impl RuleState {
    fn exhausted(&self) -> bool {
        match self.rule.mode {
            FaultMode::FailOnce => self.fired >= 1,
            FaultMode::FailTimes(n) => self.fired >= n,
            FaultMode::FailAlways
            | FaultMode::ShortWrite { .. }
            | FaultMode::NoSpaceAfter { .. }
            | FaultMode::Delay { .. } => false,
        }
    }
}

/// Counters of what a [`FaultVfs`] actually did, for asserting schedules
/// fired (and for surfacing in engine stats).
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Errors injected (all modes except `Delay`).
    pub injected: AtomicU64,
    /// Operations delayed by a `Delay` rule.
    pub delayed: AtomicU64,
    /// Bytes written through the VFS (drives `NoSpaceAfter`).
    pub bytes_written: AtomicU64,
}

#[derive(Default)]
struct FaultLog {
    events: Vec<String>,
}

struct FaultShared {
    inner: Arc<dyn Vfs>,
    rules: Mutex<Vec<RuleState>>,
    stats: FaultStats,
    log: Mutex<FaultLog>,
}

impl FaultShared {
    fn note(&self, event: String) {
        let mut log = self.log.lock();
        // Bound the log so pathological schedules can't balloon memory.
        if log.events.len() < 10_000 {
            log.events.push(event);
        }
    }

    /// Decides the fate of one operation. Returns `Ok(None)` for "let it
    /// through", `Ok(Some(n))` for "short-write n bytes then fail", and
    /// `Err` for a plain injected failure. `write_len` is the buffer
    /// length for writes (0 otherwise).
    fn check(&self, op: FaultOp, path: &Path, write_len: usize) -> io::Result<Option<usize>> {
        let mut delay_ms = 0u64;
        let mut outcome: io::Result<Option<usize>> = Ok(None);
        {
            let mut rules = self.rules.lock();
            for state in rules.iter_mut() {
                if state.rule.op != op || state.exhausted() {
                    continue;
                }
                if let Some(needle) = &state.rule.path_contains {
                    if !path.to_string_lossy().contains(needle.as_str()) {
                        continue;
                    }
                }
                // NoSpaceAfter keys on the global byte budget, not on the
                // per-rule call count.
                if let FaultMode::NoSpaceAfter { bytes } = state.rule.mode {
                    let written = self.stats.bytes_written.load(Ordering::Relaxed);
                    if written.saturating_add(write_len as u64) <= bytes {
                        continue;
                    }
                    state.fired += 1;
                    self.stats.injected.fetch_add(1, Ordering::Relaxed);
                    let kind = state.rule.kind;
                    self.note(format!(
                        "inject {kind} {} at {} (budget {bytes} bytes exceeded)",
                        op.label(),
                        path.display(),
                    ));
                    outcome = Err(io::Error::new(state.rule.kind, "injected: out of space"));
                    break;
                }
                state.seen += 1;
                if state.seen <= state.rule.after {
                    continue;
                }
                match state.rule.mode {
                    FaultMode::Delay { millis } => {
                        state.fired += 1;
                        delay_ms = delay_ms.max(millis);
                        self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                        self.note(format!(
                            "delay {}ms {} at {}",
                            millis,
                            op.label(),
                            path.display()
                        ));
                        continue;
                    }
                    FaultMode::ShortWrite { bytes } => {
                        state.fired += 1;
                        self.stats.injected.fetch_add(1, Ordering::Relaxed);
                        self.note(format!(
                            "inject short-write ({} of {} bytes) at {}",
                            bytes.min(write_len),
                            write_len,
                            path.display()
                        ));
                        outcome = Ok(Some(bytes.min(write_len)));
                        break;
                    }
                    FaultMode::FailOnce | FaultMode::FailTimes(_) | FaultMode::FailAlways => {
                        state.fired += 1;
                        self.stats.injected.fetch_add(1, Ordering::Relaxed);
                        let kind = state.rule.kind;
                        self.note(format!(
                            "inject {kind} {} at {} (call #{})",
                            op.label(),
                            path.display(),
                            state.seen
                        ));
                        outcome = Err(io::Error::new(state.rule.kind, "injected fault"));
                        break;
                    }
                    FaultMode::NoSpaceAfter { .. } => unreachable!("handled above"),
                }
            }
        }
        if delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
        outcome
    }

    fn record_write(&self, bytes: usize) {
        self.stats
            .bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn refund(&self, bytes: u64) {
        // Saturating refund: modelled reclaim can't go below zero.
        let mut current = self.stats.bytes_written.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match self.stats.bytes_written.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }
}

/// Deterministic fault-injecting [`Vfs`]. Wraps an inner VFS (usually
/// [`StdVfs`]) and executes a scripted list of [`FaultRule`]s.
#[derive(Clone)]
pub struct FaultVfs {
    shared: Arc<FaultShared>,
}

impl FaultVfs {
    /// Wraps `std::fs` with the given fault schedule.
    pub fn new(rules: Vec<FaultRule>) -> Self {
        FaultVfs::wrapping(StdVfs::handle(), rules)
    }

    /// Wraps an arbitrary inner VFS with the given fault schedule.
    pub fn wrapping(inner: Arc<dyn Vfs>, rules: Vec<FaultRule>) -> Self {
        FaultVfs {
            shared: Arc::new(FaultShared {
                inner,
                rules: Mutex::new(
                    rules
                        .into_iter()
                        .map(|rule| RuleState {
                            rule,
                            seen: 0,
                            fired: 0,
                        })
                        .collect(),
                ),
                stats: FaultStats::default(),
                log: Mutex::new(FaultLog::default()),
            }),
        }
    }

    /// Adds a rule to a live schedule (arms for subsequent calls).
    pub fn add_rule(&self, rule: FaultRule) {
        self.shared.rules.lock().push(RuleState {
            rule,
            seen: 0,
            fired: 0,
        });
    }

    /// Disarms every rule (the VFS becomes a passthrough).
    pub fn clear_rules(&self) {
        self.shared.rules.lock().clear();
    }

    /// Total errors injected so far.
    pub fn injected(&self) -> u64 {
        self.shared.stats.injected.load(Ordering::Relaxed)
    }

    /// Total operations delayed so far.
    pub fn delayed(&self) -> u64 {
        self.shared.stats.delayed.load(Ordering::Relaxed)
    }

    /// Bytes written through the VFS (the `NoSpaceAfter` accounting).
    pub fn bytes_written(&self) -> u64 {
        self.shared.stats.bytes_written.load(Ordering::Relaxed)
    }

    /// Human-readable record of every injected event, for printing the
    /// schedule of a failing chaos run.
    pub fn events(&self) -> Vec<String> {
        self.shared.log.lock().events.clone()
    }

    /// This VFS as a shareable trait handle.
    pub fn handle(&self) -> Arc<dyn Vfs> {
        Arc::new(self.clone())
    }
}

struct FaultFile {
    shared: Arc<FaultShared>,
    path: PathBuf,
    inner: Arc<dyn VfsFile>,
}

impl VfsFile for FaultFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        match self.shared.check(FaultOp::Write, &self.path, buf.len())? {
            None => {
                self.inner.write_all(buf)?;
                self.shared.record_write(buf.len());
                Ok(())
            }
            Some(short) => {
                self.inner.write_all(&buf[..short])?;
                self.shared.record_write(short);
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!("injected short write: {short} of {} bytes", buf.len()),
                ))
            }
        }
    }

    fn sync_all(&self) -> io::Result<()> {
        self.shared.check(FaultOp::Fsync, &self.path, 0)?;
        self.inner.sync_all()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl Vfs for FaultVfs {
    fn create_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        self.shared.check(FaultOp::Create, path, 0)?;
        let inner = self.shared.inner.create_append(path)?;
        Ok(Arc::new(FaultFile {
            shared: Arc::clone(&self.shared),
            path: path.to_path_buf(),
            inner,
        }))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        self.shared.check(FaultOp::Create, path, 0)?;
        let inner = self.shared.inner.create_truncate(path)?;
        Ok(Arc::new(FaultFile {
            shared: Arc::clone(&self.shared),
            path: path.to_path_buf(),
            inner,
        }))
    }

    fn open_write(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        self.shared.check(FaultOp::Create, path, 0)?;
        let inner = self.shared.inner.open_write(path)?;
        Ok(Arc::new(FaultFile {
            shared: Arc::clone(&self.shared),
            path: path.to_path_buf(),
            inner,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.shared.check(FaultOp::Read, path, 0)?;
        self.shared.inner.read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.shared.inner.read_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.shared.check(FaultOp::Rename, from, 0)?;
        self.shared.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.shared.check(FaultOp::Remove, path, 0)?;
        // Refund the file's length before removing so NoSpaceAfter models
        // reclaim; best-effort, the file may already be gone.
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        self.shared.inner.remove_file(path)?;
        self.shared.refund(len);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.shared.check(FaultOp::DirSync, dir, 0)?;
        self.shared.inner.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.shared.inner.create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_dir;

    #[test]
    fn std_vfs_round_trips_and_lists() {
        let dir = temp_dir("vfs-std");
        let vfs = StdVfs;
        let file = vfs.create_append(&dir.join("a.bin")).unwrap();
        file.write_all(b"hello").unwrap();
        file.sync_all().unwrap();
        assert_eq!(file.len().unwrap(), 5);
        assert_eq!(vfs.read(&dir.join("a.bin")).unwrap(), b"hello");
        vfs.rename(&dir.join("a.bin"), &dir.join("b.bin")).unwrap();
        let names = vfs.read_dir(&dir).unwrap();
        assert!(names.contains(&"b.bin".to_string()), "{names:?}");
        vfs.sync_dir(&dir).unwrap();
        vfs.remove_file(&dir.join("b.bin")).unwrap();
        assert!(vfs.read_dir(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_vfs_files_and_directory_entries() {
        let vfs = MemVfs::default();
        let dir = Path::new("db");
        vfs.create_dir_all(dir).unwrap();
        assert!(vfs.read_dir(dir).unwrap().is_empty(), "fresh dir is empty");
        let (tmp, ckpt) = (dir.join("x.tmp"), dir.join("x.ckpt"));
        let file = vfs.create_append(&tmp).unwrap();
        file.write_all(b"hello ").unwrap();
        file.sync_all().unwrap();
        // Reopening in append mode continues the same file.
        vfs.create_append(&tmp)
            .unwrap()
            .write_all(b"world")
            .unwrap();
        assert_eq!(file.len().unwrap(), 11);
        assert_eq!(vfs.read(&tmp).unwrap(), b"hello world");
        vfs.open_write(&tmp).unwrap().set_len(5).unwrap();
        vfs.create_append(Path::new("elsewhere/y")).unwrap();
        vfs.rename(&tmp, &ckpt).unwrap();
        assert_eq!(vfs.read_dir(dir).unwrap(), vec!["x.ckpt".to_string()]);
        assert_eq!(vfs.read(&ckpt).unwrap(), b"hello");
        assert_eq!(vfs.read(&tmp).unwrap_err().kind(), io::ErrorKind::NotFound);
        vfs.create_truncate(&ckpt).unwrap();
        assert_eq!(vfs.read(&ckpt).unwrap(), b"");
        vfs.remove_file(&ckpt).unwrap();
        assert!(vfs.read_dir(dir).unwrap().is_empty());
        assert!(vfs.remove_file(&ckpt).is_err() && vfs.open_write(&ckpt).is_err());
    }

    #[test]
    fn fail_once_fires_exactly_once() {
        let dir = temp_dir("vfs-once");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailOnce,
            io::ErrorKind::Interrupted,
        )]);
        let file = fault.create_append(&dir.join("x.bin")).unwrap();
        file.write_all(b"abc").unwrap();
        let err = file.sync_all().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        file.sync_all().unwrap();
        file.sync_all().unwrap();
        assert_eq!(fault.injected(), 1);
        assert_eq!(fault.events().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn after_skips_leading_calls_and_path_filter_applies() {
        let dir = temp_dir("vfs-after");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailAlways,
            io::ErrorKind::Other,
        )
        .on_path("target")
        .after(1)]);
        let target = fault.create_append(&dir.join("target.bin")).unwrap();
        let other = fault.create_append(&dir.join("other.bin")).unwrap();
        other.sync_all().unwrap(); // path filter: never fails
        target.sync_all().unwrap(); // after(1): first call passes
        assert!(target.sync_all().is_err());
        assert!(target.sync_all().is_err());
        other.sync_all().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_persists_prefix_then_errors() {
        let dir = temp_dir("vfs-short");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultMode::FailOnce,
            io::ErrorKind::WriteZero,
        )]);
        // FailOnce on Write is a full failure; ShortWrite persists a prefix.
        fault.clear_rules();
        fault.add_rule(FaultRule::new(
            FaultOp::Write,
            FaultMode::ShortWrite { bytes: 2 },
            io::ErrorKind::WriteZero,
        ));
        let file = fault.create_append(&dir.join("s.bin")).unwrap();
        let err = file.write_all(b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(file.len().unwrap(), 2, "prefix must land on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_space_budget_depletes_and_refunds_on_remove() {
        let dir = temp_dir("vfs-nospace");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultMode::NoSpaceAfter { bytes: 8 },
            io::ErrorKind::StorageFull,
        )]);
        let a = fault.create_append(&dir.join("a.bin")).unwrap();
        a.write_all(b"12345678").unwrap(); // exactly at budget
        let err = a.write_all(b"9").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Reclaim: removing the 8-byte file refunds the budget.
        drop(a);
        fault.remove_file(&dir.join("a.bin")).unwrap();
        let b = fault.create_append(&dir.join("b.bin")).unwrap();
        b.write_all(b"1234").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
