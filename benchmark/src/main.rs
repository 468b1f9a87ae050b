//! The benchmark's command line.
//!
//! ```text
//! pepper-benchmark run --workload W --seed N --seconds S --trace 0|1 [--out PATH]
//!     one measurement in this process; the last line of standard output is
//!     the result object of the benchmark contract
//! pepper-benchmark run [--workload W] [--seed N] [--seconds S] [--out PATH]
//!     every workload (or W), untraced then traced, one child process each;
//!     prints every metric and writes the combined result file
//! pepper-benchmark compare A.json B.json
//!     B against A under the bounds of BENCHMARK.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use pepper_benchmark::compare::compare;
use pepper_benchmark::json::Json;
use pepper_benchmark::run::run_workload;
use pepper_benchmark::workloads::{by_name, Spec, WORKLOADS};

/// Where result and span files go unless `--out` says otherwise.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// The benchmark definition at the root of the repository.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (known: {})", names.join(", "))
                })?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(parsed)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One measurement in this process.
fn run_one(spec: &'static Spec, args: &Args, traced: bool) -> Result<ExitCode, String> {
    let (run, spans) = run_workload(spec, args.seed, args.seconds, traced);
    print!("{}", run.text());
    if traced {
        let path = Path::new(OUT_DIR).join(format!("{}.spans.json", spec.name));
        write(&path, &spans.to_json())?;
        println!("  spans: {} in {}", spans.spans().len(), path.display());
    }
    if let Some(out) = &args.out {
        write(out, &run.json())?;
    }
    let line = run.contract_line().map_err(|missing| {
        format!(
            "--seconds {} is too short for {}: too few samples for {}",
            args.seconds,
            spec.name,
            missing.join(", ")
        )
    })?;
    println!("{line}");
    Ok(if run.pooled.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload (or the one asked for), untraced then traced, each in a
/// child process so that `peak_rss_mb` is the workload's own.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    let mut docs = Vec::new();
    let mut failed = false;
    for spec in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        let mut modes = Vec::new();
        for (mode, flag) in [("untraced", "0"), ("traced", "1")] {
            let part = Path::new(OUT_DIR).join(format!("{}.{mode}.json", spec.name));
            let status = Command::new(&exe)
                .args(["run", "--workload", spec.name, "--trace", flag])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            failed |= !status.success();
            let doc =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            modes.push(format!("\"{mode}\": {doc}"));
        }
        docs.push(format!("\"{}\": {{{}}}", spec.name, modes.join(",\n")));
    }
    let combined = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{\n{}\n}}}}\n",
        args.seed,
        args.seconds,
        docs.join(",\n")
    );
    write(&out, &combined)?;
    println!("results: {}", out.display());
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main_inner() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => {
            let args = parse(&argv[1..])?;
            match (args.workload, args.trace) {
                (Some(spec), Some(traced)) => run_one(spec, &args, traced),
                (None, Some(_)) => Err("--trace needs --workload".to_string()),
                (_, None) => run_all(&args),
            }
        }
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return Err("usage: compare A.json B.json".to_string());
            };
            let verdict = compare(&read_json(a)?, &read_json(b)?, &read_json(BENCHMARK_JSON)?);
            print!("{}", verdict.text);
            Ok(if verdict.regressions == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err(
            "usage: run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out PATH] | compare A.json B.json"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("pepper-benchmark: {e}");
        ExitCode::from(2)
    })
}
