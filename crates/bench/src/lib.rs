//! Benchmark harness crate.
//!
//! * `src/macro_bench.rs` — the whole-system macro benchmark: harness
//!   profiles at N ∈ {32, 128, 512, 4096} peers, emitting the committed
//!   `BENCH_macro.json` perf trajectory (`cargo run --release -p
//!   pepper-bench -- macro`).
//! * `src/trace_cli.rs` — the trace inspector: re-runs a failure artifact
//!   (or a fresh generated run) with causal tracing on and renders query
//!   timelines, failure cascades, per-layer costs and Chrome trace JSON
//!   (`cargo run --release -p pepper-bench -- trace ...`).
//! * `src/main.rs` (the `experiments` binary) — regenerates every table and
//!   figure of the paper; see the driver table in
//!   `crates/sim/src/experiments/mod.rs`.

#![forbid(unsafe_code)]

pub mod macro_bench;
pub mod trace_cli;
