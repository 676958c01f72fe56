//! An in-memory [`Vfs`] that counts what the harness asks of its disk.
//!
//! The cold workloads keep the state the CLI keeps (result cache, run
//! journal, artifacts) behind the harness's `Vfs` seam, but in memory:
//! timing fsyncs on a shared disk measured the disk, not the program.
//! Syncs are therefore no-ops that are *counted*; `vfs.syncs` stands in
//! for the real-disk time the memory store hides.

use sparten_bench::vfs::{Append, Vfs, VfsDirEntry, VfsFile};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::SystemTime;

/// Operation counts of a store, read at one instant.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `write_all` calls.
    pub writes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// File and directory syncs.
    pub syncs: u64,
    /// Renames.
    pub renames: u64,
    /// Whole-file reads.
    pub reads: u64,
    /// Bytes read.
    pub read_bytes: u64,
}

/// The live counters behind [`Counts`].
#[derive(Debug, Default)]
struct Counters([AtomicU64; 6]);

const WRITES: usize = 0;
const WRITE_BYTES: usize = 1;
const SYNCS: usize = 2;
const RENAMES: usize = 3;
const READS: usize = 4;
const READ_BYTES: usize = 5;

impl Counters {
    fn add(&self, which: usize, n: u64) {
        self.0[which].fetch_add(n, Ordering::Relaxed);
    }

    fn sync(&self) -> io::Result<()> {
        self.add(SYNCS, 1);
        Ok(())
    }

    fn read(&self) -> Counts {
        let get = |i: usize| self.0[i].load(Ordering::Relaxed);
        Counts {
            writes: get(WRITES),
            write_bytes: get(WRITE_BYTES),
            syncs: get(SYNCS),
            renames: get(RENAMES),
            reads: get(READS),
            read_bytes: get(READ_BYTES),
        }
    }
}

type Bytes = Arc<Mutex<Vec<u8>>>;

#[derive(Debug, Default)]
struct Tree {
    dirs: BTreeSet<PathBuf>,
    files: BTreeMap<PathBuf, (Bytes, SystemTime)>,
}

/// The in-memory filesystem.
#[derive(Debug, Default)]
pub struct MemFs {
    tree: Mutex<Tree>,
    counts: Arc<Counters>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

fn lock_bytes(bytes: &Bytes) -> MutexGuard<'_, Vec<u8>> {
    bytes
        .lock()
        .expect("a thread panicked while writing a memory file")
}

struct MemFile {
    bytes: Bytes,
    counts: Arc<Counters>,
}

impl VfsFile for MemFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counts.add(WRITES, 1);
        self.counts.add(WRITE_BYTES, buf.len() as u64);
        lock_bytes(&self.bytes).extend_from_slice(buf);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.counts.sync()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.counts.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        lock_bytes(&self.bytes).truncate(len as usize);
        Ok(())
    }
}

impl MemFs {
    /// An empty store.
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// The store's operation counts so far.
    pub fn counts(&self) -> Counts {
        self.counts.read()
    }

    fn tree(&self) -> MutexGuard<'_, Tree> {
        self.tree
            .lock()
            .expect("a thread panicked inside the memory filesystem")
    }

    fn handle(&self, bytes: Bytes) -> Box<dyn VfsFile> {
        Box::new(MemFile {
            bytes,
            counts: Arc::clone(&self.counts),
        })
    }

    /// Creates an empty file, checking that its directory exists.
    fn insert(tree: &mut Tree, path: &Path) -> io::Result<Bytes> {
        match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() && !tree.dirs.contains(dir) => {
                return Err(not_found(dir));
            }
            _ => {}
        }
        let bytes = Bytes::default();
        tree.files
            .insert(path.to_path_buf(), (Arc::clone(&bytes), SystemTime::now()));
        Ok(bytes)
    }
}

impl Vfs for MemFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        for dir in path.ancestors().filter(|d| !d.as_os_str().is_empty()) {
            tree.dirs.insert(dir.to_path_buf());
        }
        Ok(())
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let bytes = MemFs::insert(&mut self.tree(), path)?;
        Ok(self.handle(bytes))
    }

    fn open_append(&self, path: &Path, mode: Append) -> io::Result<Box<dyn VfsFile>> {
        let mut tree = self.tree();
        let existing = tree.files.get(path).map(|(b, _)| Arc::clone(b));
        let bytes = match (existing, mode) {
            (Some(_), Append::New) => {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("{}: exists", path.display()),
                ))
            }
            (Some(bytes), _) => bytes,
            (None, Append::Existing) => return Err(not_found(path)),
            (None, _) => MemFs::insert(&mut tree, path)?,
        };
        Ok(self.handle(bytes))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self
            .tree()
            .files
            .get(path)
            .map(|(b, _)| Arc::clone(b))
            .ok_or_else(|| not_found(path))?;
        let data = lock_bytes(&bytes).clone();
        self.counts.add(READS, 1);
        self.counts.add(READ_BYTES, data.len() as u64);
        Ok(data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        let file = tree.files.remove(from).ok_or_else(|| not_found(from))?;
        tree.files.insert(to.to_path_buf(), file);
        self.counts.add(RENAMES, 1);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.tree()
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<VfsDirEntry>> {
        let tree = self.tree();
        if !tree.dirs.contains(path) {
            return Err(not_found(path));
        }
        let in_dir = |p: &&PathBuf| p.parent() == Some(path);
        let dirs = tree.dirs.iter().filter(in_dir).map(|p| (p, false));
        let files = tree.files.keys().filter(in_dir).map(|p| (p, true));
        let mut entries: Vec<VfsDirEntry> = dirs
            .chain(files)
            .map(|(p, is_file)| VfsDirEntry {
                path: p.clone(),
                is_file,
            })
            .collect();
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        self.tree()
            .files
            .get(path)
            .map(|(_, t)| *t)
            .ok_or_else(|| not_found(path))
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        self.counts.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_bench::vfs::atomic_write_with;

    #[test]
    fn atomic_write_round_trips_and_counts() {
        let fs = MemFs::new();
        atomic_write_with(&fs, "cache/a.cache", "hello").unwrap();
        assert_eq!(
            fs.read_to_string(Path::new("cache/a.cache")).unwrap(),
            "hello"
        );
        let c = fs.counts();
        assert_eq!((c.writes, c.write_bytes, c.renames, c.reads), (1, 5, 1, 1));
        assert_eq!(c.syncs, 2); // file + directory
        let listed = fs.read_dir(Path::new("cache")).unwrap();
        assert_eq!(listed.len(), 1);
        assert!(listed[0].is_file);
    }

    #[test]
    fn append_modes_and_missing_parents() {
        let fs = MemFs::new();
        let p = Path::new("journal/run.jsonl");
        assert!(fs.create(p).is_err(), "no parent directory yet");
        fs.create_dir_all(Path::new("journal")).unwrap();
        assert!(fs.open_append(p, Append::Existing).is_err());
        let mut f = fs.open_append(p, Append::New).unwrap();
        f.write_all(b"ab").unwrap();
        assert!(fs.open_append(p, Append::New).is_err());
        let mut g = fs.open_append(p, Append::OrCreate).unwrap();
        g.write_all(b"cd").unwrap();
        g.truncate(3).unwrap();
        assert_eq!(fs.read(p).unwrap(), b"abc");
        fs.remove_file(p).unwrap();
        assert!(fs.read(p).is_err());
    }
}
