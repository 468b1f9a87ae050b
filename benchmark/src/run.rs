//! One run of one workload in this process: rounds, micro drivers, host
//! figures of the process.

use std::time::Duration;

use crate::driver::{run_round, set_up_only, Measured};
use crate::micro;
use crate::report::Run;
use crate::rng::round_seed;
use crate::spans::Spans;
use crate::workloads::{Spec, ROUNDS};

/// Host time each micro driver gets.
const MICRO_BUDGET: Duration = Duration::from_millis(100);

/// `VmHWM` of this process in MiB (0 where `/proc` is missing).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (`/proc/self/stat` counts
/// clock ticks, 100 per second on Linux).
fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Runs `spec` for `seconds` and returns the run with its spans.
///
/// Untraced: [`ROUNDS`] rounds, everything off, then set-up-only repeats
/// until `spec.setups` set-ups were timed. Traced: round 0 once more
/// untraced as the reference for `trace.overhead_frac` (and to check that
/// tracing does not change the simulation), then rounds `0..ROUNDS-1` with
/// the metrics registry and the span recorder on, then the micro drivers.
pub fn run_workload(spec: &'static Spec, seed: u64, seconds: f64, traced: bool) -> (Run, Spans) {
    let ops = spec.ops_per_round(seconds);
    let mut spans = Spans::new(traced);
    let mut pooled = Measured::default();
    let mut rounds_run = 0;
    let mut trace_overhead = None;
    let rounds = if traced { ROUNDS - 1 } else { ROUNDS };
    for round in 0..rounds {
        let sub = round_seed(seed, round);
        let m = run_round(spec, sub, ops, traced, &mut spans);
        if traced && round == 0 {
            let reference = run_round(spec, sub, ops, false, &mut Spans::new(false));
            trace_overhead = Some(m.host_s / reference.host_s - 1.0);
            if reference.witness != m.witness {
                pooled.errors.push(format!(
                    "tracing changed the simulation: witness {:016x} traced, {:016x} untraced",
                    m.witness, reference.witness
                ));
            }
        }
        rounds_run += 1;
        pooled.absorb(m);
    }
    if !traced {
        for extra in rounds..spec.setups {
            pooled
                .setup_s
                .push(set_up_only(spec, round_seed(seed, extra), ops));
        }
    }
    let costs = traced.then(|| micro::run_all(seed, MICRO_BUDGET));
    let run = Run {
        spec,
        seed,
        seconds,
        traced,
        pooled,
        rounds: rounds_run,
        peak_rss_mb: peak_rss_mb(),
        cpu_s: cpu_s(),
        costs,
        trace_overhead,
    };
    (run, spans)
}
