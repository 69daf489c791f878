//! [`CountingBackend`]: a [`DiskBackend`] wrapper that counts every call
//! per disk and changes nothing — how tests and studies check the block
//! I/O an array layer *actually* issues against the count a model
//! predicts.

use crate::backend::{DiskBackend, DiskError};

/// Calls seen on each disk since construction or the last
/// [`reset`](CountingBackend::reset). A call counts whether or not the
/// wrapped backend accepts it.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct IoCounts {
    /// `read_block` calls, per disk.
    pub reads: Vec<u64>,
    /// `write_block` calls, per disk.
    pub writes: Vec<u64>,
    /// `flush` calls, per disk.
    pub flushes: Vec<u64>,
}

impl IoCounts {
    fn zero(disks: usize) -> Self {
        IoCounts {
            reads: vec![0; disks],
            writes: vec![0; disks],
            flushes: vec![0; disks],
        }
    }
}

/// A counting pass-through over any backend.
pub struct CountingBackend<B> {
    inner: B,
    counts: IoCounts,
}

impl<B: DiskBackend> CountingBackend<B> {
    /// Wrap `inner` with all counters at zero.
    pub fn new(inner: B) -> Self {
        let counts = IoCounts::zero(inner.disks());
        CountingBackend { inner, counts }
    }

    /// The counts so far.
    pub fn counts(&self) -> &IoCounts {
        &self.counts
    }

    /// Zero every counter.
    pub fn reset(&mut self) {
        self.counts = IoCounts::zero(self.inner.disks());
    }

    /// The wrapped backend (tests inspect or corrupt the medium).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }
}

impl<B: DiskBackend> DiskBackend for CountingBackend<B> {
    fn disks(&self) -> usize {
        self.inner.disks()
    }

    fn blocks(&self) -> usize {
        self.inner.blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&mut self, disk: usize, block: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        self.check_addr(disk, block)?;
        self.counts.reads[disk] += 1;
        self.inner.read_block(disk, block, buf)
    }

    fn write_block(&mut self, disk: usize, block: usize, data: &[u8]) -> Result<(), DiskError> {
        self.check_addr(disk, block)?;
        self.counts.writes[disk] += 1;
        self.inner.write_block(disk, block, data)
    }

    fn flush(&mut self, disk: usize) -> Result<(), DiskError> {
        self.check_addr(disk, 0)?;
        self.counts.flushes[disk] += 1;
        self.inner.flush(disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn counts_per_disk_and_passes_through() {
        let mut b = CountingBackend::new(MemBackend::new(3, 4, 8));
        b.write_block(1, 2, &[7; 8]).unwrap();
        let mut buf = [0u8; 8];
        b.read_block(1, 2, &mut buf).unwrap();
        b.read_block(0, 0, &mut buf).unwrap();
        b.flush(2).unwrap();
        assert_eq!(buf, [0; 8]);
        assert_eq!(b.counts().reads, [1, 1, 0]);
        assert_eq!(b.counts().writes, [0, 1, 0]);
        assert_eq!(b.counts().flushes, [0, 0, 1]);
        // An out-of-range address is refused before it is counted.
        assert!(b.read_block(3, 0, &mut buf).is_err());
        assert_eq!(b.counts().reads, [1, 1, 0]);
        b.reset();
        assert_eq!(b.counts().writes, [0, 0, 0]);
    }
}
