//! Virtual filesystem abstraction.
//!
//! Plotfile and MACSio writers emit real bytes through a [`Vfs`] so the
//! same code path can target the OS filesystem (small runs, examples) or a
//! deterministic in-memory filesystem (campaigns at scale, where the paper
//! wrote terabytes to GPFS that we must account for without storing).

use bytes::Bytes;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Minimal filesystem surface needed by the N-to-N writers.
pub trait Vfs: Send + Sync {
    /// Creates a directory and all parents (idempotent).
    fn create_dir_all(&self, path: &str) -> io::Result<()>;

    /// Creates/overwrites a file with `data`; returns the byte count.
    fn write_file(&self, path: &str, data: &[u8]) -> io::Result<u64>;

    /// Creates/overwrites a file from an ordered list of segments;
    /// returns the total byte count. This is the streaming write path:
    /// in-memory backends adopt the shared [`Bytes`] segments without
    /// flattening them, so a producer can ship (header, table, blob)
    /// pieces as it seals a step instead of building one contiguous
    /// buffer first. The default implementation concatenates and
    /// delegates to [`Vfs::write_file`].
    fn write_file_concat(&self, path: &str, segs: &[Bytes]) -> io::Result<u64> {
        let total: usize = segs.iter().map(|s| s.len()).sum();
        let mut buf = Vec::with_capacity(total);
        for s in segs {
            buf.extend_from_slice(s);
        }
        self.write_file(path, &buf)
    }

    /// Size of a file, or `None` when absent.
    fn file_size(&self, path: &str) -> Option<u64>;

    /// Full content of a file when available. In-memory backends may
    /// truncate retained content (see [`MemFs::with_retention`]); the
    /// returned bytes are the retained prefix.
    fn read_file(&self, path: &str) -> Option<Vec<u8>>;

    /// Retained content of a file as a shared, zero-copy [`Bytes`]
    /// handle when available. In-memory backends return a view into the
    /// stored buffer (no copy); the default implementation copies via
    /// [`Vfs::read_file`].
    fn read_file_shared(&self, path: &str) -> Option<Bytes> {
        self.read_file(path).map(Bytes::from)
    }

    /// Paths of all files under `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Total bytes written across all files.
    fn total_bytes(&self) -> u64;

    /// Number of files.
    fn nfiles(&self) -> usize;
}

#[derive(Clone, Debug)]
struct MemFile {
    size: u64,
    /// Retained prefix of the content (full content when small enough),
    /// held as shared segments so writers and readers can exchange the
    /// same allocation. Multi-segment files are flattened lazily on the
    /// first shared read.
    segs: Vec<Bytes>,
}

impl MemFile {
    fn retained_len(&self) -> usize {
        self.segs.iter().map(|s| s.len()).sum()
    }

    fn flatten(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.retained_len());
        for s in &self.segs {
            out.extend_from_slice(s);
        }
        out
    }
}

// Lock access that survives a panicking writer: every update leaves
// the maps consistent, so poisoning is recovered, never propagated.
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic in-memory filesystem.
///
/// Stores file sizes exactly; content is retained up to a configurable
/// per-file limit so multi-gigabyte simulated campaigns do not exhaust
/// memory while small-file metadata (plotfile headers) remains inspectable.
pub struct MemFs {
    files: RwLock<BTreeMap<String, MemFile>>,
    retention: usize,
}

impl MemFs {
    /// A filesystem retaining full file content (use for tests).
    pub fn new() -> Self {
        Self::with_retention(usize::MAX)
    }

    /// A filesystem retaining at most `limit` bytes of content per file
    /// (sizes are always exact).
    pub fn with_retention(limit: usize) -> Self {
        Self {
            files: RwLock::new(BTreeMap::new()),
            retention: limit,
        }
    }
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

fn normalize(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for part in path.split('/').filter(|p| !p.is_empty() && *p != ".") {
        out.push('/');
        out.push_str(part);
    }
    if out.is_empty() {
        out.push('/');
    }
    out
}

impl Vfs for MemFs {
    /// Directories are implicit in the file paths: nothing to record.
    fn create_dir_all(&self, _path: &str) -> io::Result<()> {
        Ok(())
    }

    fn write_file(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        let norm = normalize(path);
        let head_len = data.len().min(self.retention);
        write_lock(&self.files).insert(
            norm,
            MemFile {
                size: data.len() as u64,
                segs: vec![Bytes::copy_from_slice(&data[..head_len])],
            },
        );
        Ok(data.len() as u64)
    }

    fn write_file_concat(&self, path: &str, segs: &[Bytes]) -> io::Result<u64> {
        let norm = normalize(path);
        let size: u64 = segs.iter().map(|s| s.len() as u64).sum();
        // Adopt the shared segments zero-copy, clipping at the retention
        // limit (a partial final segment is an O(1) sub-slice).
        let mut kept = Vec::with_capacity(segs.len());
        let mut retained = 0usize;
        for s in segs {
            if retained >= self.retention {
                break;
            }
            let take = s.len().min(self.retention - retained);
            if take == 0 {
                continue;
            }
            kept.push(if take == s.len() {
                s.clone()
            } else {
                s.slice(..take)
            });
            retained += take;
        }
        write_lock(&self.files).insert(norm, MemFile { size, segs: kept });
        Ok(size)
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        read_lock(&self.files).get(&normalize(path)).map(|f| f.size)
    }

    fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        read_lock(&self.files)
            .get(&normalize(path))
            .map(|f| f.flatten())
    }

    fn read_file_shared(&self, path: &str) -> Option<Bytes> {
        let norm = normalize(path);
        {
            let files = read_lock(&self.files);
            let f = files.get(&norm)?;
            if let [one] = f.segs.as_slice() {
                return Some(one.clone());
            }
        }
        // Multi-segment file: flatten once under the write lock and
        // cache the contiguous buffer so later reads are zero-copy.
        let mut files = write_lock(&self.files);
        let f = files.get_mut(&norm)?;
        if f.segs.len() != 1 {
            f.segs = vec![Bytes::from(f.flatten())];
        }
        Some(f.segs[0].clone())
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let norm = normalize(prefix);
        read_lock(&self.files)
            .keys()
            .filter(|k| k.starts_with(&norm))
            .cloned()
            .collect()
    }

    fn total_bytes(&self) -> u64 {
        read_lock(&self.files).values().map(|f| f.size).sum()
    }

    fn nfiles(&self) -> usize {
        read_lock(&self.files).len()
    }
}

/// OS-filesystem backend rooted at a directory.
pub struct RealFs {
    root: PathBuf,
}

impl RealFs {
    /// A backend writing under `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    fn resolve(&self, path: &str) -> PathBuf {
        let rel: PathBuf = Path::new(&normalize(path))
            .components()
            .filter(|c| matches!(c, std::path::Component::Normal(_)))
            .collect();
        self.root.join(rel)
    }
}

impl Vfs for RealFs {
    fn create_dir_all(&self, path: &str) -> io::Result<()> {
        std::fs::create_dir_all(self.resolve(path))
    }

    fn write_file(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        let p = self.resolve(path);
        if let Some(parent) = p.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&p, data)?;
        Ok(data.len() as u64)
    }

    fn file_size(&self, path: &str) -> Option<u64> {
        std::fs::metadata(self.resolve(path)).ok().map(|m| m.len())
    }

    fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        std::fs::read(self.resolve(path)).ok()
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        // Walk the root and filter; adequate for example-sized trees.
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else if let Ok(rel) = p.strip_prefix(&self.root) {
                    let rel = format!("/{}", rel.display());
                    if rel.starts_with(&normalize(prefix)) {
                        out.push(rel);
                    }
                }
            }
        }
        out.sort();
        out
    }

    fn total_bytes(&self) -> u64 {
        self.list("/")
            .iter()
            .filter_map(|p| self.file_size(p))
            .sum()
    }

    fn nfiles(&self) -> usize {
        self.list("/").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_write_read_round_trip() {
        let fs = MemFs::new();
        fs.write_file("/a/b.txt", b"hello").unwrap();
        assert_eq!(fs.file_size("/a/b.txt"), Some(5));
        assert_eq!(fs.read_file("/a/b.txt"), Some(b"hello".to_vec()));
        assert_eq!(fs.total_bytes(), 5);
        assert_eq!(fs.nfiles(), 1);
    }

    #[test]
    fn memfs_overwrite_replaces() {
        let fs = MemFs::new();
        fs.write_file("/f", b"xxxx").unwrap();
        fs.write_file("/f", b"yy").unwrap();
        assert_eq!(fs.file_size("/f"), Some(2));
        assert_eq!(fs.total_bytes(), 2);
    }

    #[test]
    fn memfs_retention_truncates_content_not_size() {
        let fs = MemFs::with_retention(4);
        fs.write_file("/big", &[7u8; 100]).unwrap();
        assert_eq!(fs.file_size("/big"), Some(100));
        assert_eq!(fs.read_file("/big").unwrap().len(), 4);
        assert_eq!(fs.total_bytes(), 100);
    }

    #[test]
    fn memfs_list_by_prefix_sorted() {
        let fs = MemFs::new();
        fs.write_file("/plt0/L0/a", b"1").unwrap();
        fs.write_file("/plt0/L1/b", b"2").unwrap();
        fs.write_file("/plt1/L0/c", b"3").unwrap();
        let l = fs.list("/plt0");
        assert_eq!(l, vec!["/plt0/L0/a".to_string(), "/plt0/L1/b".to_string()]);
        assert_eq!(fs.list("/").len(), 3);
    }

    #[test]
    fn memfs_path_normalization() {
        let fs = MemFs::new();
        fs.write_file("a//b/./c", b"x").unwrap();
        assert_eq!(fs.file_size("/a/b/c"), Some(1));
    }

    #[test]
    fn memfs_segmented_write_and_shared_read() {
        let fs = MemFs::new();
        let a = Bytes::from(b"# header\n".to_vec());
        let b = Bytes::from(b"row one\n".to_vec());
        let c = Bytes::from(b"blob".to_vec());
        fs.write_file_concat("/step/md.idx", &[a.clone(), b, c])
            .unwrap();
        assert_eq!(fs.file_size("/step/md.idx"), Some(21));
        assert_eq!(
            fs.read_file("/step/md.idx").unwrap(),
            b"# header\nrow one\nblob"
        );
        // Shared read flattens once, then hands out zero-copy views.
        let s1 = fs.read_file_shared("/step/md.idx").unwrap();
        let s2 = fs.read_file_shared("/step/md.idx").unwrap();
        assert_eq!(&s1[..], b"# header\nrow one\nblob");
        assert_eq!(s1, s2);
        // A single-segment file round-trips the very same allocation.
        fs.write_file_concat("/one", std::slice::from_ref(&a))
            .unwrap();
        let shared = fs.read_file_shared("/one").unwrap();
        assert_eq!(shared, a);
    }

    #[test]
    fn memfs_segmented_write_respects_retention() {
        let fs = MemFs::with_retention(6);
        let segs = [Bytes::from(b"abcd".to_vec()), Bytes::from(b"efgh".to_vec())];
        fs.write_file_concat("/clip", &segs).unwrap();
        assert_eq!(fs.file_size("/clip"), Some(8));
        assert_eq!(fs.read_file("/clip").unwrap(), b"abcdef");
        assert_eq!(fs.read_file_shared("/clip").unwrap().len(), 6);
    }

    #[test]
    fn realfs_round_trip() {
        let dir = std::env::temp_dir().join(format!("iosim-test-{}", std::process::id()));
        let fs = RealFs::new(&dir).unwrap();
        fs.write_file("/sub/file.bin", b"abc").unwrap();
        assert_eq!(fs.file_size("/sub/file.bin"), Some(3));
        assert_eq!(fs.read_file("/sub/file.bin"), Some(b"abc".to_vec()));
        assert_eq!(fs.list("/sub"), vec!["/sub/file.bin".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
