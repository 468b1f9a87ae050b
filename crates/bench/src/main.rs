//! Regenerates every table/figure of the paper's evaluation, and hosts the
//! macro benchmark.
//!
//! Usage:
//!   cargo run --release -p pepper-bench -- [quick|full] [fig19|fig20|fig21|fig22|fig23|correctness|availability|item-availability|load-balance|all]
//!   cargo run --release -p pepper-bench -- macro [--smoke] [--seeds K] [--out PATH]
//!   cargo run --release -p pepper-bench -- trace ARTIFACT|--profile P --seed S [--chrome PATH]

use pepper_sim::experiments::{availability, correctness, insert_succ, leave, scan_range, Effort};

/// The experiment names the harness accepts, in the order it runs them.
const NAMES: [&str; 10] = [
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "correctness",
    "load-balance",
    "availability",
    "item-availability",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("macro") {
        std::process::exit(pepper_bench::macro_bench::run(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("trace") {
        std::process::exit(pepper_bench::trace_cli::run(&args[1..]));
    }
    let effort = if args.iter().any(|a| a == "full") {
        Effort::Full
    } else {
        Effort::Quick
    };
    let which: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| *a != "full" && *a != "quick")
        .collect();
    if let Some(unknown) = which.iter().find(|a| !NAMES.contains(a)) {
        eprintln!("unknown experiment `{unknown}`");
        eprintln!("usage: experiments [quick|full] [{}]...", NAMES.join("|"));
        std::process::exit(2);
    }
    let all = which.is_empty() || which.contains(&"all");
    let seed = 2026;

    let wants = |name: &str| all || which.contains(&name);

    println!("PEPPER experiment harness (effort: {effort:?}, seed: {seed})\n");
    if wants("fig19") {
        println!("{}", insert_succ::figure_19(effort, seed));
    }
    if wants("fig20") {
        println!("{}", insert_succ::figure_20(effort, seed));
    }
    if wants("fig21") {
        println!("{}", scan_range::figure_21(effort, seed));
    }
    if wants("fig22") {
        println!("{}", leave::figure_22(effort, seed));
    }
    if wants("fig23") {
        println!("{}", insert_succ::figure_23(effort, seed));
    }
    if wants("correctness") {
        println!("{}", correctness::query_correctness(effort, seed));
    }
    if wants("load-balance") {
        println!("{}", correctness::load_balance(effort, seed));
    }
    if wants("availability") {
        println!("{}", availability::ring_availability(effort, seed));
    }
    if wants("item-availability") {
        println!("{}", availability::item_availability(effort, seed));
    }
}
