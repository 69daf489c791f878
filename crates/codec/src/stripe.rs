//! In-memory stripe storage.
//!
//! A [`Stripe`] holds one stripe's worth of element blocks, indexed by grid
//! position. Blocks are independent heap allocations so encode/decode can
//! hand out disjoint mutable borrows naturally; for the block sizes RAID
//! systems use (4 KiB – 1 MiB) the allocation layout is irrelevant to
//! throughput — the XOR kernels stream whole blocks either way.

use dcode_core::grid::{Cell, Grid};
use dcode_core::layout::CodeLayout;

/// One stripe of element blocks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Stripe {
    grid: Grid,
    block_size: usize,
    blocks: Vec<Box<[u8]>>,
}

impl Stripe {
    /// An all-zero stripe shaped for `layout`.
    pub fn zeroed(layout: &CodeLayout, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let grid = layout.grid();
        Stripe {
            grid,
            block_size,
            blocks: (0..grid.len())
                .map(|_| vec![0u8; block_size].into_boxed_slice())
                .collect(),
        }
    }

    /// Build a stripe from a flat byte payload laid across the layout's
    /// logical data order. `data` must be at most `data_len × block_size`
    /// bytes; the tail is zero-padded. Parity blocks start zeroed — call
    /// [`crate::encode::encode`] to fill them.
    pub fn from_data(layout: &CodeLayout, block_size: usize, data: &[u8]) -> Self {
        let capacity = layout.data_len() * block_size;
        assert!(
            data.len() <= capacity,
            "payload of {} bytes exceeds stripe capacity {capacity}",
            data.len()
        );
        let mut stripe = Stripe::zeroed(layout, block_size);
        for (i, chunk) in data.chunks(block_size).enumerate() {
            let cell = layout.logical_to_cell(i);
            stripe.block_mut(cell)[..chunk.len()].copy_from_slice(chunk);
        }
        stripe
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Grid shape this stripe was built for.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Immutable view of one element block.
    pub fn block(&self, cell: Cell) -> &[u8] {
        &self.blocks[self.grid.index(cell)]
    }

    /// Mutable view of one element block.
    pub fn block_mut(&mut self, cell: Cell) -> &mut [u8] {
        &mut self.blocks[self.grid.index(cell)]
    }

    /// Extract the stripe's data payload in logical order.
    pub fn data_bytes(&self, layout: &CodeLayout) -> Vec<u8> {
        let mut out = Vec::with_capacity(layout.data_len() * self.block_size);
        for &cell in layout.data_cells() {
            out.extend_from_slice(self.block(cell));
        }
        out
    }

    /// Overwrite every block of the given columns with zeros, simulating
    /// disk failures. (Zeros rather than garbage so that forgotten decode
    /// steps surface as deterministic test failures.)
    pub fn erase_columns(&mut self, cols: &[usize]) {
        for &col in cols {
            assert!(col < self.grid.cols, "column {col} out of range");
            for r in 0..self.grid.rows {
                self.block_mut(Cell::new(r, col)).fill(0);
            }
        }
    }

    /// Overwrite the blocks of the given cells with zeros.
    pub fn erase_cells(&mut self, cells: &[Cell]) {
        for &cell in cells {
            self.block_mut(cell).fill(0);
        }
    }

    /// Take a snapshot of one block (owned copy).
    pub fn snapshot(&self, cell: Cell) -> Vec<u8> {
        self.block(cell).to_vec()
    }

    /// Immutable view of one block by linear grid index
    /// (`grid.index(cell)`, row-major). The schedule executor addresses
    /// blocks this way so compiled programs never touch `Cell` math.
    pub(crate) fn block_at(&self, index: usize) -> &[u8] {
        &self.blocks[index]
    }

    /// Detach one block, leaving an empty placeholder behind. Together with
    /// [`Stripe::put_block_at`] this lets an executor hold a mutable target
    /// block while reading source blocks through `&self`. This is entirely
    /// safe code: `std::mem::take` swaps in `Box::<[u8]>::default()`, and a
    /// zero-length boxed slice is a dangling-but-valid pointer the allocator
    /// is never asked for, so detaching allocates nothing and copies
    /// nothing. A schedule that mistakenly reads a detached block trips the
    /// XOR kernels' length asserts rather than observing stale data.
    pub(crate) fn take_block_at(&mut self, index: usize) -> Box<[u8]> {
        std::mem::take(&mut self.blocks[index])
    }

    /// Return a block detached by [`Stripe::take_block_at`].
    pub(crate) fn put_block_at(&mut self, index: usize, block: Box<[u8]>) {
        debug_assert_eq!(block.len(), self.block_size);
        debug_assert!(self.blocks[index].is_empty(), "slot already occupied");
        self.blocks[index] = block;
    }

    /// A shape-compatible stripe with zero-length storage — the
    /// allocation-free placeholder `bulk::run_batch` swaps in while a
    /// stripe's real storage is owned by a worker job.
    pub(crate) fn placeholder(grid: Grid, block_size: usize) -> Self {
        Stripe {
            grid,
            block_size,
            blocks: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::dcode;

    #[test]
    fn from_data_roundtrips() {
        let l = dcode(5).unwrap();
        let payload: Vec<u8> = (0..l.data_len() * 8).map(|i| (i * 37) as u8).collect();
        let s = Stripe::from_data(&l, 8, &payload);
        assert_eq!(s.data_bytes(&l), payload);
    }

    #[test]
    fn short_payload_zero_padded() {
        let l = dcode(5).unwrap();
        let s = Stripe::from_data(&l, 8, &[0xFF; 4]);
        let data = s.data_bytes(&l);
        assert_eq!(&data[..4], &[0xFF; 4]);
        assert!(data[4..].iter().all(|&b| b == 0));
    }

    #[test]
    fn erase_columns_zeroes_blocks() {
        let l = dcode(5).unwrap();
        let payload: Vec<u8> = (1..=l.data_len() as u32 * 8).map(|i| i as u8).collect();
        let mut s = Stripe::from_data(&l, 8, &payload);
        s.erase_columns(&[2]);
        for r in 0..5 {
            assert!(s.block(Cell::new(r, 2)).iter().all(|&b| b == 0));
        }
        assert!(s.block(Cell::new(0, 0)).iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic]
    fn oversized_payload_rejected() {
        let l = dcode(5).unwrap();
        let _ = Stripe::from_data(&l, 4, &vec![0u8; l.data_len() * 4 + 1]);
    }
}
