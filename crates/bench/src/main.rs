//! `dcode-bench <study>|all [--seed N]`: runs the named study, or every
//! study and then the HTML report. Exit 0 ok, 1 a study failed, 2 usage.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dcode_bench::main_with(&dcode_bench::REGISTRY, &args));
}
