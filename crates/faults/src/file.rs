//! A file-per-disk [`DiskBackend`]: disk `i` is `disk_<i>.bin` inside an
//! array directory, addressed block-at-a-time with seek-based I/O.
//!
//! This is the backend the CLI and the server's shards run their arrays
//! over. It never buffers a whole disk image: each block is read or
//! written at its offset, so an array of any size needs one stripe batch
//! of memory, not one array of memory.
//!
//! A disk file that is missing, truncated or oversized is a *dead disk*:
//! [`FileBackend::open_degraded`] opens the rest and answers
//! [`DiskError::Failed`] for it, which the array above serves through
//! parity. A dead disk is rebuilt onto a replacement file
//! ([`FileBackend::add_replacement`]) that takes the disk's name only
//! once it is complete and flushed
//! ([`FileBackend::commit_replacements`]), so an interrupted rebuild
//! leaves the disk dead rather than half written.

use crate::backend::{DiskBackend, DiskError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Per-disk file length in bytes. Always computed in `u64`: `blocks *
/// block_size` as `usize` can overflow before the cast on 32-bit hosts
/// (a 2^20-block disk of 8 KiB blocks is 8 GiB — past `u32::MAX`), and
/// file offsets are 64-bit regardless of the host's pointer width.
fn byte_len(blocks: usize, block_size: usize) -> u64 {
    blocks as u64 * block_size as u64
}

/// File name of disk `i` inside an array directory (shared with the CLI's
/// directory layout).
pub fn disk_file_name(disk: usize) -> String {
    format!("disk_{disk}.bin")
}

/// What [`FileBackend::open_degraded`] found where a disk file should be.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskProbe {
    /// File exists with exactly the expected length.
    Present,
    /// File does not exist (killed or never written).
    Missing,
    /// File exists with another length: shorter is a torn or interrupted
    /// write, longer a metadata mismatch or a foreign file squatting on
    /// the disk's name.
    WrongSize {
        /// Bytes on disk.
        actual: u64,
        /// Bytes expected.
        expected: u64,
    },
}

impl DiskProbe {
    /// Whether the disk is usable as-is.
    pub fn is_present(self) -> bool {
        self == DiskProbe::Present
    }
}

impl fmt::Display for DiskProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DiskProbe::Present => f.write_str("ok"),
            DiskProbe::Missing => f.write_str("missing"),
            DiskProbe::WrongSize { actual, expected } if actual < expected => {
                write!(f, "TRUNCATED ({actual} of {expected} bytes)")
            }
            DiskProbe::WrongSize { actual, expected } => {
                write!(f, "SIZE MISMATCH ({actual} bytes, expected {expected})")
            }
        }
    }
}

/// A backend over one open file per disk.
pub struct FileBackend {
    dir: PathBuf,
    /// `None` is a dead disk: every operation on it answers
    /// [`DiskError::Failed`].
    files: Vec<Option<File>>,
    /// Backend disks added by [`add_replacement`](Self::add_replacement),
    /// as `(backend disk, disk it replaces)`.
    replacements: Vec<(usize, usize)>,
    blocks: usize,
    block_size: usize,
}

impl FileBackend {
    /// Create (or truncate) `disks` disk files under `dir`, each
    /// pre-sized to `blocks × block_size` bytes, and open them for I/O.
    pub fn create(
        dir: &Path,
        disks: usize,
        blocks: usize,
        block_size: usize,
    ) -> std::io::Result<Self> {
        assert!(disks > 0 && blocks > 0 && block_size > 0);
        let mut files = Vec::with_capacity(disks);
        for d in 0..disks {
            let path = dir.join(disk_file_name(d));
            files.push(Some(create_sized(&path, byte_len(blocks, block_size))?));
        }
        Ok(FileBackend {
            dir: dir.to_path_buf(),
            files,
            replacements: Vec::new(),
            blocks,
            block_size,
        })
    }

    /// Open `disks` existing disk files under `dir`. Fails if any file is
    /// missing or not exactly `blocks × block_size` bytes; see
    /// [`open_degraded`](Self::open_degraded) for the tolerant form.
    pub fn open(
        dir: &Path,
        disks: usize,
        blocks: usize,
        block_size: usize,
    ) -> std::io::Result<Self> {
        let (backend, probes) = Self::open_degraded(dir, disks, blocks, block_size)?;
        match probes.iter().position(|p| !p.is_present()) {
            None => Ok(backend),
            Some(d) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {}", dir.join(disk_file_name(d)).display(), probes[d]),
            )),
        }
    }

    /// Open whichever of the `disks` disk files under `dir` are usable —
    /// present and exactly `blocks × block_size` bytes — and report what
    /// was found for each. Every other disk is dead: reads, writes and
    /// flushes of it answer [`DiskError::Failed`]. Only a usable file
    /// that cannot be opened is an error.
    pub fn open_degraded(
        dir: &Path,
        disks: usize,
        blocks: usize,
        block_size: usize,
    ) -> std::io::Result<(Self, Vec<DiskProbe>)> {
        let expected = byte_len(blocks, block_size);
        let mut files = Vec::with_capacity(disks);
        let mut probes = Vec::with_capacity(disks);
        for d in 0..disks {
            let path = dir.join(disk_file_name(d));
            let probe = match std::fs::metadata(&path).map(|m| m.len()) {
                Err(_) => DiskProbe::Missing,
                Ok(actual) if actual == expected => DiskProbe::Present,
                Ok(actual) => DiskProbe::WrongSize { actual, expected },
            };
            files.push(if probe.is_present() {
                Some(OpenOptions::new().read(true).write(true).open(&path)?)
            } else {
                None
            });
            probes.push(probe);
        }
        let backend = FileBackend {
            dir: dir.to_path_buf(),
            files,
            replacements: Vec::new(),
            blocks,
            block_size,
        };
        Ok((backend, probes))
    }

    /// Add a zero-filled replacement for `disk` as one more backend disk
    /// (its index is returned — hand it to the array as a spare). The file
    /// carries a temporary name until
    /// [`commit_replacements`](Self::commit_replacements), so until then
    /// `disk` still probes as dead; a leftover from an interrupted
    /// rebuild is truncated and reused.
    pub fn add_replacement(&mut self, disk: usize) -> std::io::Result<usize> {
        let len = byte_len(self.blocks, self.block_size);
        let file = create_sized(&self.replacement_path(disk), len)?;
        self.files.push(Some(file));
        self.replacements.push((self.files.len() - 1, disk));
        Ok(self.files.len() - 1)
    }

    /// Make every replacement durable, then rename it over the disk it
    /// replaces. Consumes the backend: its disk indices no longer match
    /// the directory afterwards.
    pub fn commit_replacements(self) -> std::io::Result<()> {
        for &(spare, disk) in &self.replacements {
            let file = self.files[spare].as_ref().expect("replacements are open");
            file.sync_all()?;
            std::fs::rename(
                self.replacement_path(disk),
                self.dir.join(disk_file_name(disk)),
            )?;
        }
        // The renames are directory entries: flush them too.
        File::open(&self.dir)?.sync_all()
    }

    fn replacement_path(&self, disk: usize) -> PathBuf {
        self.dir.join(format!("{}.rebuild", disk_file_name(disk)))
    }

    /// The open file of `disk`, positioned at `block`.
    fn seek_to(&mut self, disk: usize, block: usize) -> Result<&mut File, DiskError> {
        self.check_addr(disk, block)?;
        let file = self.files[disk]
            .as_mut()
            .ok_or(DiskError::Failed { disk })?;
        file.seek(SeekFrom::Start(byte_len(block, self.block_size)))
            .map_err(|e| DiskError::Io(e.to_string()))?;
        Ok(file)
    }
}

fn create_sized(path: &Path, len: u64) -> std::io::Result<File> {
    let f = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    f.set_len(len)?;
    Ok(f)
}

impl DiskBackend for FileBackend {
    fn disks(&self) -> usize {
        self.files.len()
    }

    fn blocks(&self) -> usize {
        self.blocks
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn read_block(&mut self, disk: usize, block: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        assert_eq!(buf.len(), self.block_size);
        self.seek_to(disk, block)?
            .read_exact(buf)
            .map_err(|e| DiskError::Io(e.to_string()))
    }

    fn write_block(&mut self, disk: usize, block: usize, data: &[u8]) -> Result<(), DiskError> {
        assert_eq!(data.len(), self.block_size);
        self.seek_to(disk, block)?
            .write_all(data)
            .map_err(|e| DiskError::Io(e.to_string()))
    }

    fn flush(&mut self, disk: usize) -> Result<(), DiskError> {
        self.check_addr(disk, 0)?;
        self.files[disk]
            .as_ref()
            .ok_or(DiskError::Failed { disk })?
            .sync_data()
            .map_err(|e| DiskError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcode-faults-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_write_reopen_read() {
        let dir = tmpdir("roundtrip");
        let mut b = FileBackend::create(&dir, 2, 3, 8).unwrap();
        let data = [7u8; 8];
        b.write_block(1, 2, &data).unwrap();
        b.flush(1).unwrap();
        drop(b);

        let mut b = FileBackend::open(&dir, 2, 3, 8).unwrap();
        let mut buf = [0u8; 8];
        b.read_block(1, 2, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Unwritten blocks read back as zeros (file was pre-sized).
        b.read_block(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn offsets_past_4gib_do_not_overflow() {
        // Regression: `seek_to` used to compute `(block * block_size) as
        // u64`, overflowing the usize multiply before the cast on 32-bit
        // hosts. Address a block whose byte offset exceeds u32::MAX —
        // the file is sparse, so the 8 GiB disk costs almost no space.
        let dir = tmpdir("hugeoff");
        let blocks = 1 << 20; // 2^20 blocks × 8 KiB = 8 GiB per disk
        let block_size = 8192;
        assert!(byte_len(blocks, block_size) > u64::from(u32::MAX));
        let mut b = FileBackend::create(&dir, 1, blocks, block_size).unwrap();
        let data = vec![0xA5u8; block_size];
        let last = blocks - 1;
        b.write_block(0, last, &data).unwrap();
        let mut buf = vec![0u8; block_size];
        b.read_block(0, last, &mut buf).unwrap();
        assert_eq!(buf, data);
        // A block just below the 4 GiB line is untouched by that write.
        b.read_block(0, (1 << 19) - 1, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; block_size]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_open_serves_the_usable_disks_and_fails_the_rest() {
        let dir = tmpdir("degraded");
        let mut b = FileBackend::create(&dir, 4, 3, 8).unwrap();
        b.write_block(0, 1, &[9u8; 8]).unwrap();
        drop(b);
        std::fs::remove_file(dir.join(disk_file_name(1))).unwrap();
        std::fs::write(dir.join(disk_file_name(2)), b"short").unwrap();
        std::fs::write(dir.join(disk_file_name(3)), [0u8; 25]).unwrap();

        let (mut b, probes) = FileBackend::open_degraded(&dir, 4, 3, 8).unwrap();
        assert_eq!(probes[0], DiskProbe::Present);
        assert_eq!(probes[1], DiskProbe::Missing);
        assert_eq!(probes[2].to_string(), "TRUNCATED (5 of 24 bytes)");
        assert_eq!(
            probes[3].to_string(),
            "SIZE MISMATCH (25 bytes, expected 24)"
        );
        let mut buf = [0u8; 8];
        b.read_block(0, 1, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 8]);
        for dead in 1..4 {
            let failed = Err(DiskError::Failed { disk: dead });
            assert_eq!(b.read_block(dead, 0, &mut buf), failed);
            assert_eq!(b.write_block(dead, 0, &buf), failed);
            assert_eq!(b.flush(dead), failed);
        }
        // The dead disks' files are left exactly as found.
        assert_eq!(
            std::fs::read(dir.join(disk_file_name(2))).unwrap(),
            b"short"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_replacement_takes_the_disks_name_only_at_commit() {
        let dir = tmpdir("replace");
        drop(FileBackend::create(&dir, 2, 3, 8).unwrap());
        std::fs::remove_file(dir.join(disk_file_name(1))).unwrap();
        let still_dead = |dir: &Path| {
            let (_, probes) = FileBackend::open_degraded(dir, 2, 3, 8).unwrap();
            probes[1] == DiskProbe::Missing
        };

        // Abandoned before the commit: the disk still probes as dead.
        let (mut b, _) = FileBackend::open_degraded(&dir, 2, 3, 8).unwrap();
        let spare = b.add_replacement(1).unwrap();
        assert_eq!((spare, b.disks()), (2, 3));
        b.write_block(spare, 0, &[1u8; 8]).unwrap();
        drop(b);
        assert!(still_dead(&dir));

        // A second attempt starts from a zeroed file and, committed, is
        // the disk.
        let (mut b, _) = FileBackend::open_degraded(&dir, 2, 3, 8).unwrap();
        let spare = b.add_replacement(1).unwrap();
        let mut buf = [0xFFu8; 8];
        b.read_block(spare, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8], "leftover replacement was not truncated");
        b.write_block(spare, 2, &[7u8; 8]).unwrap();
        assert!(still_dead(&dir));
        b.commit_replacements().unwrap();
        let mut b = FileBackend::open(&dir, 2, 3, 8).unwrap();
        b.read_block(1, 2, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8]);
        assert!(!dir.join("disk_1.bin.rebuild").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_wrong_geometry() {
        let dir = tmpdir("geom");
        drop(FileBackend::create(&dir, 1, 2, 8).unwrap());
        assert!(FileBackend::open(&dir, 1, 3, 8).is_err()); // wrong length
        assert!(FileBackend::open(&dir, 2, 2, 8).is_err()); // missing disk
        let _ = std::fs::remove_dir_all(&dir);
    }
}
