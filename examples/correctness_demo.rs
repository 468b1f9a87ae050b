//! Demonstrates the paper's core point: under concurrent reorganization the
//! naive ring scan can miss live items, while the PEPPER `scanRange` cannot.
//!
//! Run with: `cargo run -p pepper-sim --example correctness_demo`

use pepper_sim::experiments::correctness::run_correctness;
use pepper_sim::experiments::Effort;
use pepper_sim::experiments::{availability, insert_succ};
use pepper_types::{Protocol, SystemConfig};

fn main() {
    println!("== query correctness under churn (4 rounds each) ==");
    let naive = run_correctness(
        SystemConfig::paper_defaults().with_protocol(Protocol::Naive),
        2026,
        4,
    );
    let pepper = run_correctness(SystemConfig::paper_defaults(), 2026, 4);
    println!(
        "naive scan : {} queries, {} silently incorrect, {} visibly incomplete",
        naive.queries, naive.incorrect, naive.incomplete
    );
    println!(
        "scanRange  : {} queries, {} silently incorrect, {} visibly incomplete",
        pepper.queries, pepper.incorrect, pepper.incomplete
    );

    println!();
    println!("== cost of the guarantees (quick run of Figure 19) ==");
    let table = insert_succ::figure_19(Effort::Quick, 2026);
    println!("{table}");

    println!("== availability after a leave followed by one failure ==");
    let table = availability::ring_availability(Effort::Quick, 2026);
    println!("{table}");
}
