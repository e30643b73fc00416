//! A memory-backed [`Vfs`] for the durable workload's log directory.
//!
//! Every file is a byte vector in this process, so the log's fsync costs
//! no device flush and the benchmark reads and writes no file outside its
//! own checkout. Each file remembers how many of its bytes were covered by
//! the last `sync_all`; [`MemVfs::crash_image`] keeps only those bytes, so
//! recovering from the image shows exactly what a crash right now would
//! have left. Directory entries (create, rename, remove) count as durable
//! at once.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use ssi_wal::{Vfs, VfsFile};

#[derive(Default)]
struct FileData {
    bytes: Vec<u8>,
    synced: usize,
}

#[derive(Default)]
struct MemFile(Mutex<FileData>);

impl MemFile {
    fn data(&self) -> MutexGuard<'_, FileData> {
        self.0.lock().expect("memory file lock poisoned")
    }
}

impl VfsFile for MemFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        self.data().bytes.extend_from_slice(buf);
        Ok(())
    }

    fn sync_all(&self) -> io::Result<()> {
        let mut d = self.data();
        d.synced = d.bytes.len();
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut d = self.data();
        d.bytes.resize(len as usize, 0);
        d.synced = d.synced.min(d.bytes.len());
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.data().bytes.len() as u64)
    }
}

#[derive(Default)]
pub struct MemVfs {
    files: Mutex<BTreeMap<PathBuf, Arc<MemFile>>>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemVfs {
    fn files(&self) -> MutexGuard<'_, BTreeMap<PathBuf, Arc<MemFile>>> {
        self.files.lock().expect("memory vfs lock poisoned")
    }

    /// A copy holding only the synced prefix of every file, with the
    /// directory `from` renamed to `to`.
    pub fn crash_image(&self, from: &Path, to: &Path) -> MemVfs {
        let files = self
            .files()
            .iter()
            .map(|(path, file)| {
                let path = match path.strip_prefix(from) {
                    Ok(rest) => to.join(rest),
                    Err(_) => path.clone(),
                };
                let d = file.data();
                let data = FileData {
                    bytes: d.bytes[..d.synced].to_vec(),
                    synced: d.synced,
                };
                (path, Arc::new(MemFile(Mutex::new(data))))
            })
            .collect();
        MemVfs {
            files: Mutex::new(files),
        }
    }
}

impl Vfs for MemVfs {
    fn create_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        let file = self.files().entry(path.to_path_buf()).or_default().clone();
        Ok(file)
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        let file = self.files().entry(path.to_path_buf()).or_default().clone();
        file.set_len(0)?;
        Ok(file)
    }

    fn open_write(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        let file = self
            .files()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))?;
        Ok(file)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let file = self
            .files()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))?;
        let bytes = file.data().bytes.clone();
        Ok(bytes)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        Ok(self
            .files()
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name()?.to_str().map(str::to_string))
            .collect())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.files()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_image_keeps_only_synced_bytes() {
        let vfs = MemVfs::default();
        let path = Path::new("log/segment-1.wal");
        let f = vfs.create_append(path).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_all().unwrap();
        f.write_all(b"-lost").unwrap();
        assert_eq!(vfs.read(path).unwrap(), b"durable-lost");
        let image = vfs.crash_image(Path::new("log"), Path::new("copy"));
        assert_eq!(
            image.read(Path::new("copy/segment-1.wal")).unwrap(),
            b"durable"
        );
        assert_eq!(
            image.read_dir(Path::new("copy")).unwrap(),
            vec!["segment-1.wal"]
        );
        vfs.rename(path, Path::new("log/segment-2.wal")).unwrap();
        assert!(vfs.read(path).is_err());
        assert_eq!(
            vfs.read_dir(Path::new("log")).unwrap(),
            vec!["segment-2.wal"]
        );
    }
}
