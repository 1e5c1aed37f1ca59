//! Prints the exact part of Table II: communication (MB) and online
//! flights of full PI and C2PI at the σ = 0.2 / 0.3 boundaries, for both
//! backends on VGG16 and VGG19, at quick scale (`--paper-scale` for the
//! paper's widths). Traffic does not depend on weights, so the models
//! are untrained and the output is the same on every run;
//! `ci/goldencheck.sh` diffs it against `tests/golden/table2_comm.txt`.
//!
//! ```text
//! cargo run --release -p c2pi-bench --example table2_comm
//! ```

use c2pi_bench::figures::table2;
use c2pi_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    println!("Table II traffic, scale {} (width 1/{})", scale.name, scale.width_div);
    table2::print_comm(&table2::comm_rows(&scale));
}
