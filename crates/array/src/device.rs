//! The element-addressed block-device interface of the array, and the
//! error type its operations return.
//!
//! [`ElementIo`] is what sits between [`ResilientArray`](crate::ResilientArray)
//! and its consumers: the object store is written against the trait, so a
//! caller can put a wrapper around the array (the benchmark counts and
//! times element I/O that way) and a test can substitute a fake. Methods
//! take `&mut self` even for reads: a read retries, records errors, and
//! can trigger state transitions.

/// Errors from array operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ArrayError {
    /// The byte range falls outside the array.
    OutOfRange {
        /// First logical element requested.
        element: usize,
        /// Array capacity in elements.
        capacity: usize,
    },
    /// More slots have failed than RAID-6 tolerates.
    TooManyFailures {
        /// Currently failed slots.
        failed: Vec<usize>,
    },
    /// The slot asked to fail is already failed.
    BadDiskState {
        /// The slot in question.
        disk: usize,
    },
}

impl std::fmt::Display for ArrayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayError::OutOfRange { element, capacity } => {
                write!(f, "element {element} outside array capacity {capacity}")
            }
            ArrayError::TooManyFailures { failed } => {
                write!(
                    f,
                    "RAID-6 cannot serve with {} failed disks {failed:?}",
                    failed.len()
                )
            }
            ArrayError::BadDiskState { disk } => write!(f, "disk {disk} is in the wrong state"),
        }
    }
}

impl std::error::Error for ArrayError {}

/// Logical element-granular I/O over a RAID-6 array.
pub trait ElementIo {
    /// Total logical data elements.
    fn capacity_elements(&self) -> usize;
    /// Bytes per element.
    fn element_size(&self) -> usize;
    /// Read `count` elements starting at `start`.
    fn read_elements(&mut self, start: usize, count: usize) -> Result<Vec<u8>, ArrayError>;
    /// Write `bytes` (a multiple of the element size) starting at `start`.
    fn write_elements(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError>;
}

/// A borrowed array is an array: a store can be opened over
/// `&mut array`, used, and dropped, leaving the array with its owner.
impl<D: ElementIo + ?Sized> ElementIo for &mut D {
    fn capacity_elements(&self) -> usize {
        (**self).capacity_elements()
    }
    fn element_size(&self) -> usize {
        (**self).element_size()
    }
    fn read_elements(&mut self, start: usize, count: usize) -> Result<Vec<u8>, ArrayError> {
        (**self).read_elements(start, count)
    }
    fn write_elements(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError> {
        (**self).write_elements(start, bytes)
    }
}
