//! `compare A.json B.json`: B against A, metric by metric, against the
//! bounds `BENCHMARK.json` fixes.

use std::fmt::Write as _;

use crate::json::Json;
use crate::report::END_TO_END;

/// The verdict of one comparison.
#[derive(Debug)]
pub struct Comparison {
    /// The table, one line per workload × end-to-end metric.
    pub text: String,
    /// End-to-end metrics of B worse than A by more than their bound.
    pub regressions: usize,
    /// Exact (virtual-time or count) values, or witnesses, that differ
    /// between two runs of the same seed and length: a determinism break if
    /// both files come from the same code.
    pub differences: usize,
}

fn value(doc: &Json, workload: &str, mode: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(mode)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .num()
}

/// Compares result document `b` against `a` under the bounds of `bench`
/// (a parsed `BENCHMARK.json`).
pub fn compare(a: &Json, b: &Json, bench: &Json) -> Comparison {
    let mut out = Comparison {
        text: String::new(),
        regressions: 0,
        differences: 0,
    };
    let same_inputs = a.get("seed") == b.get("seed") && a.get("seconds") == b.get("seconds");
    let _ = writeln!(
        out.text,
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in bench.get("workloads").map_or(&[][..], Json::arr) {
        let Some(workload) = w.get("name").and_then(Json::str) else {
            continue;
        };
        for metric in bench.get("end_to_end").map_or(&[][..], Json::arr) {
            let (Some(name), Some(bound)) = (
                metric.get("name").and_then(Json::str),
                metric.get("bound").and_then(Json::num),
            ) else {
                continue;
            };
            let lower = metric.get("better").and_then(Json::str) != Some("higher");
            let exact = END_TO_END.iter().any(|d| d.name == name && d.exact);
            let (va, vb) = (
                value(a, workload, "untraced", name),
                value(b, workload, "untraced", name),
            );
            let (Some(va), Some(vb)) = (va, vb) else {
                let _ = writeln!(
                    out.text,
                    "{workload:<12} {name:<16} {:>14} {:>14} {:>9} {:>7}  not in both files",
                    va.map_or("n/a".to_string(), |v| format!("{v:.4}")),
                    vb.map_or("n/a".to_string(), |v| format!("{v:.4}")),
                    "",
                    ""
                );
                continue;
            };
            let worse_by = if lower { vb - va } else { va - vb } / va.abs().max(f64::MIN_POSITIVE);
            let mut verdict = if worse_by > bound {
                out.regressions += 1;
                "REGRESSION".to_string()
            } else {
                "ok".to_string()
            };
            if exact && same_inputs && va != vb {
                out.differences += 1;
                verdict.push_str(", DIFFERS (same seed: determinism break if same code)");
            }
            let _ = writeln!(
                out.text,
                "{workload:<12} {name:<16} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%  {verdict}",
                worse_by * 100.0,
                bound * 100.0
            );
        }
        for mode in ["untraced", "traced"] {
            let witness = |d: &Json| {
                d.get("workloads")?
                    .get(workload)?
                    .get(mode)?
                    .get("witness")?
                    .str()
                    .map(str::to_string)
            };
            if let (Some(wa), Some(wb)) = (witness(a), witness(b)) {
                let same = wa == wb;
                if same_inputs && !same {
                    out.differences += 1;
                }
                let _ = writeln!(
                    out.text,
                    "{workload:<12} witness ({mode}) {wa} vs {wb}: {}",
                    if same {
                        "identical"
                    } else if same_inputs {
                        "DIFFERS (same seed: determinism break if same code)"
                    } else {
                        "differs (different inputs)"
                    }
                );
            }
        }
    }
    let _ = writeln!(
        out.text,
        "{} regression(s) beyond the bounds, {} exact value(s) differing between same-seed runs",
        out.regressions, out.differences
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: f64, p50: f64, witness: &str) -> Json {
        Json::parse(&format!(
            r#"{{"seed": 1, "seconds": 12, "workloads": {{"steady": {{"untraced": {{
                "witness": "{witness}",
                "metrics": {{"host_s": {{"value": {wall}, "unit": "s"}},
                             "query_p50_ms": {{"value": {p50}, "unit": "ms"}}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn bench() -> Json {
        Json::parse(
            r#"{"workloads": [{"name": "steady", "why": "x"}],
                "end_to_end": [
                  {"name": "host_s", "unit": "s", "better": "lower", "bound": 0.1},
                  {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.05}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn within_bounds_and_identical_is_clean() {
        let c = compare(&doc(4.0, 2.5, "aa"), &doc(4.2, 2.5, "aa"), &bench());
        assert_eq!((c.regressions, c.differences), (0, 0), "{}", c.text);
    }

    #[test]
    fn flags_regressions_and_determinism_breaks() {
        let c = compare(&doc(4.0, 2.5, "aa"), &doc(4.5, 2.51, "ab"), &bench());
        assert_eq!(c.regressions, 1, "{}", c.text); // host_s +12.5% > 10%
        assert_eq!(c.differences, 2, "{}", c.text); // query_p50_ms and the witness
    }
}
