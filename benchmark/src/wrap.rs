//! The seams every layer is measured through, from outside the program:
//! thin `impl DiskBackend` / `impl ElementIo` wrappers over the inner
//! value. [`CountingBackend`] only bumps atomics (it is what the untraced
//! runs use, so device cost is reported as exact counts); [`TracedBackend`]
//! and [`TracedIo`] read the clock and record a span per call.

use crate::trace::Tracer;
use dcode_array::{ArrayError, ElementIo};
use dcode_faults::{DiskBackend, DiskError};
use std::ops::{Add, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calls seen by a [`CountingBackend`]. Relaxed ordering: these are
/// statistics and publish no other data.
#[derive(Default)]
pub struct Counts {
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
}

/// A point-in-time copy of [`Counts`]; subtract two to get a window.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CountSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub flushes: u64,
}

impl Sub for CountSnapshot {
    type Output = CountSnapshot;
    fn sub(self, rhs: CountSnapshot) -> CountSnapshot {
        CountSnapshot {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
            flushes: self.flushes - rhs.flushes,
        }
    }
}

impl Add for CountSnapshot {
    type Output = CountSnapshot;
    fn add(self, rhs: CountSnapshot) -> CountSnapshot {
        CountSnapshot {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            flushes: self.flushes + rhs.flushes,
        }
    }
}

impl Counts {
    pub fn snapshot(&self) -> CountSnapshot {
        CountSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

/// Counts every block read, block write and flush issued to `inner`,
/// successful or not (the device sees the command either way).
pub struct CountingBackend<B> {
    inner: B,
    counts: Arc<Counts>,
}

impl<B> CountingBackend<B> {
    pub fn new(inner: B, counts: Arc<Counts>) -> Self {
        CountingBackend { inner, counts }
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
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_block(disk, block, buf)
    }
    fn write_block(&mut self, disk: usize, block: usize, data: &[u8]) -> Result<(), DiskError> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_block(disk, block, data)
    }
    fn flush(&mut self, disk: usize) -> Result<(), DiskError> {
        self.counts.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush(disk)
    }
}

/// Records a `backend.read_block` / `backend.write_block` /
/// `backend.flush` span around every call into `inner`.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Tracer,
}

impl<B> TracedBackend<B> {
    pub fn new(inner: B, tracer: Tracer) -> Self {
        TracedBackend { inner, tracer }
    }
}

impl<B: DiskBackend> DiskBackend for TracedBackend<B> {
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
        let inner = &mut self.inner;
        self.tracer
            .span("backend.read_block", || inner.read_block(disk, block, buf))
    }
    fn write_block(&mut self, disk: usize, block: usize, data: &[u8]) -> Result<(), DiskError> {
        let inner = &mut self.inner;
        self.tracer.span("backend.write_block", || {
            inner.write_block(disk, block, data)
        })
    }
    fn flush(&mut self, disk: usize) -> Result<(), DiskError> {
        let inner = &mut self.inner;
        self.tracer.span("backend.flush", || inner.flush(disk))
    }
}

/// Records an `array.read_elements` / `array.write_elements` span around
/// every call the object store makes into the array, and counts the bytes
/// written to the store's index region (elements below `meta_elements`).
pub struct TracedIo<D> {
    inner: D,
    tracer: Tracer,
    meta_elements: usize,
    pub index_bytes: u64,
}

impl<D> TracedIo<D> {
    pub fn new(inner: D, tracer: Tracer, meta_elements: usize) -> Self {
        TracedIo {
            inner,
            tracer,
            meta_elements,
            index_bytes: 0,
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }
}

impl<D: ElementIo> ElementIo for TracedIo<D> {
    fn capacity_elements(&self) -> usize {
        self.inner.capacity_elements()
    }
    fn element_size(&self) -> usize {
        self.inner.element_size()
    }
    fn read_elements(&mut self, start: usize, count: usize) -> Result<Vec<u8>, ArrayError> {
        let inner = &mut self.inner;
        self.tracer
            .span("array.read_elements", || inner.read_elements(start, count))
    }
    fn write_elements(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError> {
        if start < self.meta_elements {
            self.index_bytes += bytes.len() as u64;
        }
        let inner = &mut self.inner;
        self.tracer.span("array.write_elements", || {
            inner.write_elements(start, bytes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_array::{Array, RotationScheme};
    use dcode_core::dcode::dcode;
    use dcode_faults::{FaultInjector, FaultPlan, MemBackend};

    /// A scripted sequence with one out-of-range access and one access to
    /// a dead disk; returns everything observable from outside.
    fn script(b: &mut dyn DiskBackend) -> Vec<Result<Vec<u8>, DiskError>> {
        let mut seen = Vec::new();
        let mut buf = vec![0u8; 16];
        let block: Vec<u8> = (0..16).collect();
        seen.push(b.write_block(0, 1, &block).map(|()| Vec::new()));
        seen.push(b.write_block(2, 3, &block).map(|()| Vec::new()));
        seen.push(b.flush(0).map(|()| Vec::new()));
        seen.push(b.read_block(0, 1, &mut buf).map(|()| buf.clone()));
        seen.push(b.read_block(1, 0, &mut buf).map(|()| buf.clone()));
        seen.push(b.read_block(9, 0, &mut buf).map(|()| buf.clone()));
        seen.push(b.write_block(1, 2, &block).map(|()| Vec::new()));
        seen.push(b.flush(2).map(|()| Vec::new()));
        seen
    }

    fn faulty() -> FaultInjector<MemBackend> {
        let mut f = FaultInjector::new(MemBackend::new(3, 4, 16), FaultPlan::quiet(1));
        f.fail_disk(1);
        f
    }

    #[test]
    fn backend_wrappers_are_transparent_and_counts_are_exact() {
        let plain = script(&mut faulty());
        assert!(matches!(plain[4], Err(DiskError::Failed { disk: 1 })));
        assert!(matches!(plain[5], Err(DiskError::OutOfRange { .. })));

        let counts = Arc::new(Counts::default());
        let mut counting = CountingBackend::new(faulty(), Arc::clone(&counts));
        assert_eq!(script(&mut counting), plain, "same bytes, same errors");
        assert_eq!(
            counts.snapshot(),
            CountSnapshot {
                reads: 3,
                writes: 3,
                flushes: 2
            }
        );
        assert_eq!(
            (counting.disks(), counting.blocks(), counting.block_size()),
            (3, 4, 16)
        );

        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let mut traced = TracedBackend::new(faulty(), tracer.clone());
        assert_eq!(script(&mut traced), plain, "same bytes, same errors");
        let names: Vec<_> = tracer.take().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "backend.write_block",
                "backend.write_block",
                "backend.flush",
                "backend.read_block",
                "backend.read_block",
                "backend.read_block",
                "backend.write_block",
                "backend.flush",
            ]
        );
        // Both box as the server's shard backend type.
        let _: dcode_server::ShardBackend = Box::new(counting);
        let _: dcode_server::ShardBackend = Box::new(traced);
    }

    #[test]
    fn traced_io_is_transparent_and_counts_index_traffic() {
        let array = || Array::new(dcode(5).unwrap(), 16, 4, RotationScheme::PerStripe);
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let (mut plain, mut traced) = (array(), TracedIo::new(array(), tracer.clone(), 2));
        let data: Vec<u8> = (0..48).collect();
        for start in [0usize, 1, 5] {
            plain.write_elements(start, &data).unwrap();
            traced.write_elements(start, &data).unwrap();
        }
        assert_eq!(
            traced.read_elements(0, 8).unwrap(),
            plain.read_elements(0, 8).unwrap()
        );
        let far = plain.capacity_elements();
        assert_eq!(
            format!("{:?}", traced.read_elements(far, 1)),
            format!("{:?}", plain.read_elements(far, 1)),
            "errors pass through unchanged"
        );
        assert_eq!(traced.capacity_elements(), plain.capacity_elements());
        assert_eq!(traced.element_size(), 16);
        assert_eq!(traced.index_bytes, 96);
        let names: Vec<_> = tracer.take().iter().map(|s| s.name).collect();
        assert_eq!(
            names
                .iter()
                .filter(|n| **n == "array.write_elements")
                .count(),
            3
        );
        assert_eq!(
            names
                .iter()
                .filter(|n| **n == "array.read_elements")
                .count(),
            2
        );
    }
}
