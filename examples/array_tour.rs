//! Array tour: the multi-stripe layer end to end — writes, a double disk
//! failure served and written through live, rebuild onto hot spares, a
//! silent-corruption scrub, and the stripe-rotation load study.
//!
//! ```sh
//! cargo run --release --example array_tour
//! ```

use dcode::array::loadstudy::{lf, physical_loads, StripeSkew};
use dcode::array::{ResilientArray, RotationScheme};
use dcode::core::dcode::dcode;

fn main() {
    let layout = dcode(7).unwrap();
    let block = 4096;
    let mut array = ResilientArray::new(layout, block, 16, RotationScheme::PerStripe);
    println!(
        "array: 7-disk D-Code × {} stripes = {} KiB capacity",
        array.stripes(),
        array.capacity_bytes() / 1024
    );

    // Fill with a recognizable pattern.
    let mut payload: Vec<u8> = (0..array.capacity_bytes())
        .map(|i| (i % 251) as u8)
        .collect();
    array.write(0, &payload).unwrap();

    // Two disks die; each gets a hot spare at once. Reads keep working,
    // and so do writes.
    array.fail_disk(1).unwrap();
    array.fail_disk(4).unwrap();
    let degraded = array.read(100, 50).unwrap();
    assert_eq!(degraded, &payload[100 * block..150 * block]);
    println!("disks 1 and 4 failed — 50-element read served correctly while degraded");
    let patch = &mut payload[120 * block..123 * block];
    patch.fill(0xEE);
    array.write(120, patch).unwrap();
    println!("3-element write accepted while degraded");

    // Rebuild both, side by side: one pass over the survivors per stripe.
    while !array.rebuild_step(64).unwrap() {}
    let stats = array.stats();
    println!(
        "rebuilt both disks: {} blocks from {} block reads, {} of {} survivor passes joint",
        stats.rebuilt_blocks,
        stats.rebuild_read_blocks,
        stats.joint_rebuild_stripes,
        stats.rebuild_stripes
    );
    assert!(array.failed_slots().is_empty());

    // Flip bits on the medium, beneath the checksums, and scrub them out.
    let disk = array.slot_disk(5);
    array.backend_mut().disk_bytes_mut(disk)[3 * block + 7] ^= 0xA5;
    let scrub = array.scrub_pass().unwrap();
    assert_eq!((scrub.checksum_catches, scrub.read_repairs), (1, 1));
    println!("scrub caught silent corruption on disk {disk} by checksum and repaired it in place");
    assert_eq!(array.read(0, array.capacity_elements()).unwrap(), payload);

    // Rotation study in one breath (the paper's Section II argument).
    let skewed = vec![1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 5.0]; // RDP-like hot parity columns
    for skew in [StripeSkew::Uniform, StripeSkew::SingleHot] {
        let rotated = lf(&physical_loads(
            &dcode(7).unwrap(),
            &skewed,
            RotationScheme::PerStripe,
            14,
            skew,
        ));
        println!("rotation under {skew:?} stripe popularity: LF = {rotated:.2}");
    }
    println!(
        "rotation only balances when stripes are equally hot — a balanced code needs no rotation."
    );
}
