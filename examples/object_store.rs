//! Object store on RAID-6: put objects, lose two disks, keep serving,
//! rebuild, and re-open the store from the array alone — the cloud-storage
//! scenario the paper's introduction motivates.
//!
//! ```sh
//! cargo run --release --example object_store
//! ```

use dcode::array::objstore::ObjectStore;
use dcode::array::{ResilientArray, RotationScheme};
use dcode::core::dcode::dcode;

fn main() {
    let array = ResilientArray::new(dcode(7).unwrap(), 1024, 32, RotationScheme::PerStripe);
    println!(
        "formatting an object store on a 7-disk D-Code array ({} KiB usable)",
        array.capacity_bytes() / 1024
    );
    let mut store = ObjectStore::format(array, 8).expect("format");

    let alpha: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    let beta: Vec<u8> = b"hello, dependable world".to_vec();
    store.put("alpha.bin", &alpha).unwrap();
    store.put("beta.txt", &beta).unwrap();
    println!("stored: {:?}", store.list());

    store.array_mut().fail_disk(1).unwrap();
    store.array_mut().fail_disk(4).unwrap();
    assert_eq!(store.get("alpha.bin").unwrap(), alpha);
    assert_eq!(store.get("beta.txt").unwrap(), beta);
    println!("disks 1 and 4 failed — both objects still served correctly");

    while !store.array_mut().rebuild_step(256).unwrap() {}
    println!("rebuilt both disks onto their hot spares");

    store.delete("beta.txt").unwrap();
    store.put("gamma.bin", &alpha[..10_000]).unwrap();
    assert_eq!(store.get("gamma.bin").unwrap(), &alpha[..10_000]);
    println!("deleted beta.txt, reused its space for gamma.bin");
    println!("final listing: {:?}", store.list());
}
