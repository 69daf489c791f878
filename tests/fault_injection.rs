//! Model-based fault injection: random interleavings of writes, slot
//! failures, partial rebuilds, silent corruption, scrubs, and reads against
//! the array, checked against a plain in-memory shadow copy. Writes and
//! reads run whatever state the array is in — healthy, one or two slots
//! down, mid-rebuild. If any interleaving the state machine permits ever
//! returns wrong bytes, this fails with the seed that found it.

use dcode::array::{ResilientArray, RetryPolicy, RotationScheme, SlotState};
use dcode::core::dcode::dcode;
use dcode::faults::MemBackend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Harness {
    array: ResilientArray<MemBackend>,
    rotation: RotationScheme,
    shadow: Vec<u8>,
    block: usize,
    /// Stripes holding a bit flipped on the medium since the last scrub
    /// (one per stripe: together with two lost columns a second one could
    /// exceed what RAID-6 reconstructs).
    dirty: Vec<bool>,
}

impl Harness {
    /// `spares` bounds how many failures the run can inject: every failure
    /// rebuilds onto a fresh disk.
    fn new(p: usize, stripes: usize, rotation: RotationScheme, spares: usize) -> Self {
        let layout = dcode(p).unwrap();
        let block = 32;
        let backend = MemBackend::new(layout.disks() + spares, stripes * layout.rows(), block);
        // The injected bit flips are checksum errors against their slot;
        // no threshold, so that only the failures this harness decides on
        // take a slot down and the count stays within two.
        let array = ResilientArray::format(
            layout,
            block,
            stripes,
            rotation,
            backend,
            RetryPolicy::default(),
            usize::MAX,
        );
        let shadow = vec![0u8; array.capacity_bytes()];
        Harness {
            array,
            rotation,
            shadow,
            block,
            dirty: vec![false; stripes],
        }
    }

    fn elements(&self) -> usize {
        self.array.capacity_elements()
    }

    fn slots_down(&self) -> usize {
        let states = self.array.slot_states();
        states.iter().filter(|&&s| s != SlotState::Healthy).count()
    }

    /// Scrub out the injected corruption. Called before every failure: a
    /// rotten block beside two lost columns is a third erasure in its
    /// stripe, which is precisely why real arrays scrub proactively. Each
    /// flipped bit is either caught here and repaired in place, or was
    /// already overwritten by a write or repaired by a read that met it.
    fn scrub_dirty(&mut self) {
        let outstanding = self.dirty.iter().filter(|&&d| d).count() as u64;
        if outstanding == 0 {
            return;
        }
        assert_eq!(self.slots_down(), 0, "corruption is only injected healthy");
        let found = self.array.scrub_pass().expect("one rotten block a stripe");
        assert!(found.checksum_catches <= outstanding, "{found:?}");
        assert_eq!(found.read_repairs, found.checksum_catches, "{found:?}");
        self.dirty.fill(false);
    }

    fn step(&mut self, rng: &mut StdRng) {
        match rng.gen_range(0..100) {
            // Write a small random range, in whatever state the array is.
            0..=39 => {
                let start = rng.gen_range(0..self.elements());
                let count = rng.gen_range(1..=8.min(self.elements() - start));
                let bytes: Vec<u8> = (0..count * self.block).map(|_| rng.gen()).collect();
                self.array
                    .write(start, &bytes)
                    .expect("≤2 lost columns are writable");
                let lo = start * self.block;
                self.shadow[lo..lo + bytes.len()].copy_from_slice(&bytes);
            }
            // Fail a slot (after scrubbing, so rebuilds never read
            // corrupted sources). Failing one that is already rebuilding
            // loses its spare too and starts over on the next.
            40..=54 => {
                self.scrub_dirty();
                let slot = rng.gen_range(0..self.array.layout().disks());
                let healthy = self.array.slot_states()[slot] == SlotState::Healthy;
                if healthy && self.slots_down() == 2 {
                    return; // a third lost column is beyond RAID-6
                }
                self.array.fail_disk(slot).expect("the slot was serving");
                assert_eq!(self.array.slot_states()[slot], SlotState::Rebuilding);
                let restarted = (slot, 0, self.array.stripes());
                assert!(self.array.rebuild_progress().contains(&restarted));
            }
            // Advance the rebuild by a random amount, often leaving the
            // watermark inside the array for the steps that follow.
            55..=69 => {
                let all = self.array.stripes() * self.array.layout().rows();
                self.array
                    .rebuild_step(rng.gen_range(1..=all))
                    .expect("≤2 failures are rebuildable");
            }
            // Flip a bit on the medium beneath the checksums (healthy
            // array only, one per stripe between scrubs).
            70..=79 => {
                let s = rng.gen_range(0..self.array.stripes());
                if self.slots_down() == 0 && !self.dirty[s] {
                    let grid = self.array.layout().grid();
                    let (row, col) = (rng.gen_range(0..grid.rows), rng.gen_range(0..grid.cols));
                    let slot = self.rotation.to_physical(s, col, grid.cols);
                    let disk = self.array.slot_disk(slot);
                    let at = (s * grid.rows + row) * self.block + rng.gen_range(0..self.block);
                    self.array.backend_mut().disk_bytes_mut(disk)[at] ^= 0x3C;
                    self.dirty[s] = true;
                }
            }
            80..=89 => self.scrub_dirty(),
            // Read-and-check a random range: degraded, mid-rebuild or over
            // a rotten block, the bytes must be the shadow's.
            _ => {
                let start = rng.gen_range(0..self.elements());
                let count = rng.gen_range(1..=12.min(self.elements() - start));
                let got = self
                    .array
                    .read(start, count)
                    .expect("≤2 failures are readable");
                let lo = start * self.block;
                assert_eq!(
                    got,
                    &self.shadow[lo..lo + count * self.block],
                    "read mismatch at elements [{start}, {})",
                    start + count
                );
            }
        }
    }
}

fn run(seed: u64, p: usize, rotation: RotationScheme, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Harness::new(p, 4, rotation, steps);
    for _ in 0..steps {
        h.step(&mut rng);
    }
    // Drain: rebuild everything, scrub leftovers, then the medium must be
    // clean — no block off its checksum, every stripe's parity matching
    // its data — and the full read-back must be the shadow.
    while !h.array.rebuild_step(64).unwrap() {}
    assert_eq!(h.slots_down(), 0, "a slot stayed down (seed {seed})");
    h.scrub_dirty();
    let clean = h.array.scrub_pass().unwrap();
    assert_eq!(clean.checksum_catches, 0, "seed {seed}: {clean:?}");
    assert_eq!(clean.parity_checked, 4, "seed {seed}: {clean:?}");
    assert_eq!(clean.parity_mismatches, 0, "seed {seed}: {clean:?}");
    let all = h.array.read(0, h.elements()).unwrap();
    assert_eq!(all, h.shadow, "final state diverged (seed {seed})");
}

#[test]
fn random_interleavings_p5_no_rotation() {
    for seed in 0..8 {
        run(seed, 5, RotationScheme::None, 300);
    }
}

#[test]
fn random_interleavings_p5_rotated() {
    for seed in 100..108 {
        run(seed, 5, RotationScheme::PerStripe, 300);
    }
}

#[test]
fn random_interleavings_p7_rotated() {
    for seed in 200..205 {
        run(seed, 7, RotationScheme::PerStripe, 400);
    }
}
