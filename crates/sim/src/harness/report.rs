//! Replayable failure artifacts.
//!
//! When an invariant trips, the harness freezes everything needed to
//! reproduce the run into a [`FailureArtifact`]: the seed and profile the
//! cluster was built from, the full concrete op trace up to (and including)
//! the violating step, the violations themselves, and ring / Data Store
//! dumps taken at the moment of the violation. The artifact is a plain text
//! format: `FailureArtifact::parse` recovers everything replay needs,
//! [`Harness::replay_artifact`](super::Harness::replay_artifact) re-executes
//! it byte for byte, and `experiments trace ARTIFACT` replays it traced and
//! says whether it reproduced.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use pepper_types::PeerId;

use super::invariants::Violation;
use super::scenario::OpTrace;

/// Magic first line of the artifact format (versioned).
pub const ARTIFACT_HEADER: &str = "pepper-harness-artifact v1";

/// Environment variable overriding the artifact dump directory.
pub const DUMP_DIR_ENV: &str = "PEPPER_HARNESS_DUMP_DIR";

/// Default artifact dump directory: the workspace `target/harness-failures`
/// (anchored to this crate's manifest so it is stable regardless of the
/// working directory cargo runs tests from; CI uploads it on red).
pub const DEFAULT_DUMP_DIR: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/harness-failures");

/// Everything needed to reproduce an invariant violation.
#[derive(Debug, Clone)]
pub struct FailureArtifact {
    /// The harness seed the run was generated from.
    pub seed: u64,
    /// The named configuration profile (see `HarnessConfig::from_profile`).
    pub profile: String,
    /// Index of the trace op after which the violation was detected.
    pub step: usize,
    /// The violations, in detection order.
    pub violations: Vec<Violation>,
    /// The concrete op schedule up to and including the violating step.
    pub trace: OpTrace,
    /// Ring dump at the moment of the violation.
    pub ring_dump: String,
    /// Data Store dump at the moment of the violation.
    pub store_dump: String,
    /// Rendered trace tail of every implicated peer (the last events each
    /// kept, captured by a traced re-replay of the same schedule). Empty
    /// when no violation implicated a specific peer, and in artifacts
    /// written before trace capture existed.
    pub trace_tail: String,
}

impl FailureArtifact {
    /// Renders the artifact in its canonical text form.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{ARTIFACT_HEADER}");
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "profile {}", self.profile);
        let _ = writeln!(out, "step {}", self.step);
        for v in &self.violations {
            let peers: Vec<String> = v.peers.iter().map(|p| p.to_string()).collect();
            let _ = writeln!(
                out,
                "violation {} [{}] {}",
                v.invariant,
                peers.join(","),
                v.details
            );
        }
        let _ = writeln!(out, "trace-begin");
        out.push_str(&self.trace.encode());
        let _ = writeln!(out, "trace-end");
        let _ = writeln!(out, "ring-dump-begin");
        out.push_str(&self.ring_dump);
        let _ = writeln!(out, "ring-dump-end");
        let _ = writeln!(out, "store-dump-begin");
        out.push_str(&self.store_dump);
        let _ = writeln!(out, "store-dump-end");
        if !self.trace_tail.is_empty() {
            let _ = writeln!(out, "trace-tail-begin");
            out.push_str(&self.trace_tail);
            if !self.trace_tail.ends_with('\n') {
                out.push('\n');
            }
            let _ = writeln!(out, "trace-tail-end");
        }
        out
    }

    /// Parses the replay-relevant parts of an encoded artifact: seed,
    /// profile and the op trace. Dumps and violation lines are carried along
    /// verbatim where present.
    pub fn parse(text: &str) -> Result<FailureArtifact, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(ARTIFACT_HEADER) {
            return Err(format!(
                "not a harness artifact (expected `{ARTIFACT_HEADER}`)"
            ));
        }
        let mut seed = None;
        let mut profile = None;
        let mut step = 0usize;
        let mut violations = Vec::new();
        let mut trace_text = String::new();
        let mut ring_dump = String::new();
        let mut store_dump = String::new();
        let mut trace_tail = String::new();
        #[derive(PartialEq)]
        enum Section {
            Head,
            Trace,
            Ring,
            Store,
            Tail,
        }
        let mut section = Section::Head;
        for line in lines {
            match section {
                Section::Head => {
                    if let Some(rest) = line.strip_prefix("seed ") {
                        seed = rest.trim().parse::<u64>().ok();
                    } else if let Some(rest) = line.strip_prefix("profile ") {
                        profile = Some(rest.trim().to_string());
                    } else if let Some(rest) = line.strip_prefix("step ") {
                        step = rest.trim().parse().unwrap_or(0);
                    } else if let Some(rest) = line.strip_prefix("violation ") {
                        let (inv, rest) = rest.split_once(' ').unwrap_or((rest, ""));
                        // Optional implicated-peer list `[p1,p2]` between
                        // the invariant name and the details (absent in
                        // artifacts written before trace capture existed).
                        let (peers, details) =
                            match rest.strip_prefix('[').and_then(|tail| tail.split_once(']')) {
                                Some((list, details)) => (
                                    list.split(',')
                                        .filter_map(|t| t.trim().strip_prefix('p'))
                                        .filter_map(|t| t.parse::<u64>().ok())
                                        .map(PeerId)
                                        .collect(),
                                    details.trim_start(),
                                ),
                                None => (Vec::new(), rest),
                            };
                        violations.push(Violation {
                            invariant: leak_invariant_name(inv),
                            peers,
                            details: details.to_string(),
                        });
                    } else if line.trim() == "trace-begin" {
                        section = Section::Trace;
                    }
                }
                Section::Trace => {
                    if line.trim() == "trace-end" {
                        section = Section::Head;
                    } else {
                        trace_text.push_str(line);
                        trace_text.push('\n');
                    }
                }
                Section::Ring => {
                    if line.trim() == "ring-dump-end" {
                        section = Section::Head;
                    } else {
                        ring_dump.push_str(line);
                        ring_dump.push('\n');
                    }
                }
                Section::Store => {
                    if line.trim() == "store-dump-end" {
                        section = Section::Head;
                    } else {
                        store_dump.push_str(line);
                        store_dump.push('\n');
                    }
                }
                Section::Tail => {
                    if line.trim() == "trace-tail-end" {
                        section = Section::Head;
                    } else {
                        trace_tail.push_str(line);
                        trace_tail.push('\n');
                    }
                }
            }
            if section == Section::Head {
                if line.trim() == "ring-dump-begin" {
                    section = Section::Ring;
                } else if line.trim() == "store-dump-begin" {
                    section = Section::Store;
                } else if line.trim() == "trace-tail-begin" {
                    section = Section::Tail;
                }
            }
        }
        Ok(FailureArtifact {
            seed: seed.ok_or("artifact is missing a `seed` line")?,
            profile: profile.ok_or("artifact is missing a `profile` line")?,
            step,
            violations,
            trace: OpTrace::decode(&trace_text)?,
            ring_dump,
            store_dump,
            trace_tail,
        })
    }

    /// The directory artifacts are dumped to: `$PEPPER_HARNESS_DUMP_DIR` or
    /// [`DEFAULT_DUMP_DIR`].
    pub fn dump_dir() -> PathBuf {
        std::env::var_os(DUMP_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(DEFAULT_DUMP_DIR))
    }

    /// Writes the artifact to `dir` (created if needed) and returns the
    /// file path.
    pub fn dump_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let name = format!("harness-seed{}-step{}.trace", self.seed, self.step);
        let path = dir.join(name);
        fs::write(&path, self.encode())?;
        Ok(path)
    }
}

/// Invariant names are `&'static str` in [`Violation`]; map the known names
/// back to their static forms when parsing (unknown names degrade to a
/// generic label rather than failing the parse).
fn leak_invariant_name(name: &str) -> &'static str {
    match name {
        "ring" => "ring",
        "range-partition" => "range-partition",
        "duplicate-items" => "duplicate-items",
        "storage-bounds" => "storage-bounds",
        "replication" => "replication",
        "query-vs-oracle" => "query-vs-oracle",
        "item-conservation" => "item-conservation",
        "recovered-range" => "recovered-range",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::super::scenario::Op;
    use super::*;
    use pepper_types::PeerId;

    fn artifact() -> FailureArtifact {
        let mut trace = OpTrace::new();
        trace.push(Op::AddFreePeer);
        trace.push(Op::Insert {
            at: PeerId(0),
            key: 99,
        });
        trace.push(Op::Advance { ms: 40 });
        FailureArtifact {
            seed: 2026,
            profile: "quick".to_string(),
            step: 2,
            violations: vec![Violation {
                invariant: "range-partition",
                peers: vec![PeerId(2), PeerId(3)],
                details: "gap: peer p2 owns (30, 50] …".to_string(),
            }],
            trace,
            ring_dump: "p0 value=10 phase=Joined alive succ=[]\n".to_string(),
            store_dump: "p0 Live (0, 10] items=[1, 2]\n".to_string(),
            trace_tail: "peer 2 (1 events)\n1000 p2 c500.2 ds/ScanStep hop=1\n".to_string(),
        }
    }

    #[test]
    fn artifact_roundtrips_through_text() {
        let a = artifact();
        let text = a.encode();
        let b = FailureArtifact::parse(&text).unwrap();
        assert_eq!(b.seed, a.seed);
        assert_eq!(b.profile, a.profile);
        assert_eq!(b.step, a.step);
        assert_eq!(b.trace, a.trace);
        assert_eq!(b.violations.len(), 1);
        assert_eq!(b.violations[0].invariant, "range-partition");
        assert_eq!(b.violations[0].peers, vec![PeerId(2), PeerId(3)]);
        assert!(b.ring_dump.contains("p0"));
        assert!(b.store_dump.contains("Live"));
        assert_eq!(b.trace_tail, a.trace_tail);
        // Re-encoding the parse is stable.
        assert_eq!(
            FailureArtifact::parse(&b.encode()).unwrap().encode(),
            b.encode()
        );
    }

    #[test]
    fn parse_accepts_violation_lines_without_peer_lists() {
        // Artifacts written before trace capture existed have no `[...]`
        // peer list after the invariant name.
        let text = format!(
            "{ARTIFACT_HEADER}\nseed 1\nprofile quick\nstep 0\n\
             violation ring succ pointer wrong\ntrace-begin\ntrace-end\n"
        );
        let a = FailureArtifact::parse(&text).unwrap();
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].peers.is_empty());
        assert_eq!(a.violations[0].details, "succ pointer wrong");
        assert!(a.trace_tail.is_empty());
    }

    #[test]
    fn parse_rejects_foreign_text() {
        assert!(FailureArtifact::parse("hello world").is_err());
        assert!(FailureArtifact::parse(ARTIFACT_HEADER).is_err()); // no seed
    }

    #[test]
    fn dump_writes_a_file() {
        let a = artifact();
        let dir = std::env::temp_dir().join("pepper-harness-artifact-test");
        let path = a.dump_to(&dir).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, a.encode());
        let _ = fs::remove_file(path);
    }
}
