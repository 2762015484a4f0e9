//! The durable workload's disk: an in-memory [`Storage`].
//!
//! On a shared VM the real filesystem's cost per file operation moves by
//! an order of magnitude within minutes (creating a 16 KB file, the size
//! of a spilled durable_churn session, measured 20 µs and then 250-400 µs
//! a quarter of an hour later), so WAL and spill latencies taken on it
//! measure the host rather than the engine. `MemDisk` keeps every file in
//! memory. The engine still makes each storage call it makes on a real
//! disk (log appends and interval syncs, spill writes, reads and removes,
//! checkpoint renames, recovery reads) and pays for the encoding, copying
//! and bookkeeping around them, but not for a page cache, a journal or a
//! device. Syncs return at once.

use pir::engine::{Storage, StorageFile, StorageHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// One file's bytes, shared by the namespace and its open handles, so a
/// removed or renamed file stays writable through a handle, as on a
/// POSIX filesystem.
type Data = Arc<Mutex<Vec<u8>>>;

#[derive(Default)]
struct Tree {
    files: BTreeMap<PathBuf, Data>,
    dirs: BTreeSet<PathBuf>,
}

impl Tree {
    /// `NotFound` unless `path`'s directory exists.
    fn parent(&self, path: &Path) -> io::Result<()> {
        match path.parent() {
            Some(p) if !p.as_os_str().is_empty() && !self.dirs.contains(p) => Err(not_found(p)),
            _ => Ok(()),
        }
    }
}

/// An in-memory disk; [`MemDisk::handle`] gives the engine its view.
#[derive(Default)]
pub struct MemDisk(Mutex<Tree>);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemDisk {
    pub fn handle(self: &Arc<Self>) -> StorageHandle {
        StorageHandle::new(self.clone())
    }

    /// Forget every file and directory.
    pub fn clear(&self) {
        *lock(&self.0) = Tree::default();
    }

    /// Create or replace the file at `path` with `bytes`.
    fn put(&self, path: &Path, bytes: Vec<u8>) -> io::Result<Data> {
        let mut tree = lock(&self.0);
        tree.parent(path)?;
        let data = Arc::new(Mutex::new(bytes));
        tree.files.insert(path.to_path_buf(), data.clone());
        Ok(data)
    }
}

struct MemFile(Data);

impl StorageFile for MemFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        lock(&self.0).extend_from_slice(buf);
        Ok(())
    }
    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        lock(&self.0).resize(len as usize, 0);
        Ok(())
    }
}

impl Storage for MemDisk {
    fn name(&self) -> &'static str {
        "memdisk"
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        if self.exists(path) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, path.display().to_string()));
        }
        Ok(Box::new(MemFile(self.put(path, Vec::new())?)))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(MemFile(self.put(path, Vec::new())?)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let data = lock(&self.0).files.get(path).cloned().ok_or_else(|| not_found(path))?;
        let bytes = lock(&data).clone();
        Ok(bytes)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.put(path, bytes.to_vec()).map(drop)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut tree = lock(&self.0);
        tree.parent(to)?;
        let data = tree.files.remove(from).ok_or_else(|| not_found(from))?;
        tree.files.insert(to.to_path_buf(), data);
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        lock(&self.0).files.remove(path).map(drop).ok_or_else(|| not_found(path))
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let tree = lock(&self.0);
        if !tree.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        Ok(tree.files.keys().filter(|p| p.parent() == Some(dir)).cloned().collect())
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut tree = lock(&self.0);
        for d in dir.ancestors().filter(|d| !d.as_os_str().is_empty()) {
            tree.dirs.insert(d.to_path_buf());
        }
        Ok(())
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if lock(&self.0).dirs.contains(dir) {
            Ok(())
        } else {
            Err(not_found(dir))
        }
    }
    fn exists(&self, path: &Path) -> bool {
        let tree = lock(&self.0);
        tree.files.contains_key(path) || tree.dirs.contains(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_behave_like_posix_files() {
        let disk = Arc::new(MemDisk::default());
        let s = disk.handle();
        let (dir, a, b) = (Path::new("x/wal"), Path::new("x/wal/a"), Path::new("x/wal/b"));
        assert!(s.create(a).is_err(), "no directory yet");
        s.create_dir_all(dir).unwrap();
        let mut f = s.create_new(a).unwrap();
        assert!(s.create_new(a).is_err());
        f.append(b"hello").unwrap();
        f.truncate(4).unwrap();
        f.append(b"!").unwrap();
        assert_eq!(s.read(a).unwrap(), b"hell!");
        s.rename(a, b).unwrap();
        f.append(b"?").unwrap();
        assert_eq!(s.read(b).unwrap(), b"hell!?");
        assert!(!s.exists(a) && s.exists(b) && s.exists(dir));
        s.write(a, b"spill").unwrap();
        assert_eq!(s.read_dir(dir).unwrap(), vec![a.to_path_buf(), b.to_path_buf()]);
        s.remove_file(b).unwrap();
        assert!(s.remove_file(b).is_err());
        s.sync_dir(dir).unwrap();
        disk.clear();
        assert!(!s.exists(a) && s.read_dir(dir).is_err());
    }
}
