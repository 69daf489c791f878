//! Define your own array code at runtime from a text spec and run it
//! through the full toolchain: MDS verification, the byte codec, and the
//! I/O simulator — no recompilation, no trait implementations.
//!
//! ```sh
//! cargo run --release --example custom_code
//! ```

use dcode::codec::{encode, recover_columns, Stripe};
use dcode::core::mds::verify_mds;
use dcode::core::spec::{format_spec, parse_spec};
use dcode::iosim::sim::run_workload;
use dcode::iosim::workload::{generate, WorkloadKind, WorkloadParams};

/// A hand-written 4-disk code: RAID-5-style row parity plus one extra
/// "checksum of everything" disk. Looks plausible — is it RAID-6?
const NAIVE: &str = "
    name = naive-double-parity
    rows = 2
    cols = 4
    row (0,3) = (0,0) (0,1) (0,2)
    row (1,3) = (1,0) (1,1) (1,2)
    diagonal (0,2) = (0,0) (0,1) (1,0) (1,1)
    diagonal (1,2) = (0,0) (1,1) (0,1) (1,0)
";

fn main() {
    // The naive design parses and protects every element…
    let naive = parse_spec(NAIVE).expect("structurally valid");
    // …but the MDS checker exposes it: its two extra equations are not
    // independent enough to survive every pair of failures.
    let v = verify_mds(&naive).expect_err("the checker must reject the naive code");
    println!("naive 4-disk code rejected: {v}");

    // D-Code itself round-trips through the same text format.
    let dcode_spec = format_spec(&dcode::core::dcode::dcode(5).unwrap());
    let code = parse_spec(&dcode_spec).unwrap();
    verify_mds(&code).unwrap();
    println!(
        "\nre-parsed D-Code spec verifies MDS at p = {}",
        code.prime()
    );

    // And anything that parses + verifies runs on the whole stack.
    let payload: Vec<u8> = (0..code.data_len() * 256)
        .map(|i| (i % 249) as u8)
        .collect();
    let mut stripe = Stripe::from_data(&code, 256, &payload);
    encode(&code, &mut stripe);
    recover_columns(&code, &mut stripe, &[1, 3]).unwrap();
    assert_eq!(stripe.data_bytes(&code), payload);
    println!("byte roundtrip through a double failure: ok");

    let ops = generate(
        WorkloadKind::Mixed,
        code.data_len(),
        WorkloadParams::default(),
        1,
    );
    let res = run_workload(&code, &ops);
    println!("mixed-workload LF through the simulator: {:.2}", res.lf());
}
