#!/usr/bin/env bash
# Interleaved A/B pairs of the benchmark: a parent commit against a change.
#
#   tools/abpairs.sh [-n PAIRS] [-w "W1 W2 ..."] [-d DIR] [BASE [CHANGE]]
#
# BASE and CHANGE are revisions of this repository (default HEAD~1 and HEAD).
# Each side is cloned into DIR (default ${TMPDIR:-/tmp}/abpairs; an existing
# clone is re-used and moved to the revision) and its benchmark binary is built
# once. Then, per workload, PAIRS pairs of
#
#   pepper-benchmark run --workload W --seed S --trace 0
#
# run back to back: seeds cycle 1-5 and the side that runs first alternates,
# so slow phases of a shared box hit both sides alike. Per workload and host
# metric it prints the parent's median [q1, q3], the change's median, where
# that median falls against the parent's quartiles, and in how many pairs the
# change was lower. Below that it prints the parent's and the change's medians
# of every virtual-time end-to-end metric and of the failed-op count, the
# before/after rows of a change that is meant to move the simulation.
#
# Exit status: 0 when every pair agrees exactly in its witness, its failed and
# attempted op counts and every virtual-time metric; 1 when any pair differs
# (the two sides did not simulate the same thing); 2 on a usage or build
# error. Host metrics never fail the run: read them from the table.
set -euo pipefail

pairs=10
workloads="steady scan_heavy grow_shrink peer_churn"
dir="${TMPDIR:-/tmp}/abpairs"
usage() {
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
}
while getopts "n:w:d:h" opt; do
    case "$opt" in
        n) pairs="$OPTARG" ;;
        w) workloads="$OPTARG" ;;
        d) dir="$OPTARG" ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -le 2 ] || usage
base="${1:-HEAD~1}"
change="${2:-HEAD}"
repo="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# Clones `repo` into DIR/<side> at revision <rev> and builds its benchmark.
prepare() {
    local side="$1" sha
    sha="$(git -C "$repo" rev-parse --verify "$2^{commit}")" || exit 2
    local clone="$dir/$side"
    [ -d "$clone/.git" ] || git clone -q "$repo" "$clone"
    git -C "$clone" fetch -q origin
    git -C "$clone" checkout -q --detach "$sha"
    echo "$side: $(git -C "$clone" log --oneline -1)" >&2
    cargo build --release --offline --quiet --manifest-path "$clone/benchmark/Cargo.toml" || exit 2
}
mkdir -p "$dir"
prepare parent "$base"
prepare change "$change"

runs="$dir/runs"
rm -rf "$runs"
mkdir -p "$runs"
for w in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((i % 5 + 1))
        order="parent change"
        [ $((i % 2)) -eq 0 ] || order="change parent"
        for side in $order; do
            # A correctness error exits 1 but still writes the result file,
            # whose `correct` field the pair comparison covers.
            status=0
            "$dir/$side/benchmark/target/release/pepper-benchmark" run \
                --workload "$w" --seed "$seed" --trace 0 \
                --out "$runs/$w.$i.$side.json" >/dev/null || status=$?
            if [ "$status" -gt 1 ]; then
                echo "$side: run --workload $w --seed $seed exited $status" >&2
                exit 2
            fi
        done
        echo "$w pair $((i + 1))/$pairs (seed $seed) done" >&2
    done
done

python3 - "$runs" "$pairs" "$repo/BENCHMARK.json" $workloads <<'EOF'
import json
import statistics
import sys

runs, pairs, bench = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
HOST = ["host_s", "setup_s", "peak_rss_mb"]
exact = [m["name"] for m in bench["end_to_end"] if m["name"] not in HOST]


def value(doc, name):
    return doc[name] if name == "failed" else doc["metrics"][name]["value"]


differing = 0
for w in sys.argv[4:]:
    docs = [
        tuple(json.load(open(f"{runs}/{w}.{i}.{side}.json")) for side in ("parent", "change"))
        for i in range(pairs)
    ]
    print(f"{w}: {pairs} pairs")
    for name in HOST:
        a = [value(p, name) for p, _ in docs]
        b = [value(c, name) for _, c in docs]
        q1, med, q3 = statistics.quantiles(a, n=4) if pairs > 1 else (a[0],) * 3
        mb = statistics.median(b)
        where = "below q1" if mb < q1 else "above q3" if mb > q3 else "inside"
        lower = sum(y < x for x, y in zip(a, b))
        print(f"  {name:<12} parent {med:10.4f} [{q1:.4f}, {q3:.4f}]"
              f"  change {mb:10.4f}  {where:<8}  change lower in {lower}/{pairs}")
    for name in exact + ["failed"]:
        a = statistics.median(value(p, name) for p, _ in docs)
        b = statistics.median(value(c, name) for _, c in docs)
        print(f"  {name:<14} parent median {a:12.4f}  change median {b:12.4f}")
    for i, (p, c) in enumerate(docs):
        fields = ["witness", "attempted", "failed", "correct"]
        diffs = [f for f in fields if p[f] != c[f]]
        diffs += [n for n in exact if value(p, n) != value(c, n)]
        if diffs:
            differing += 1
            print(f"  pair {i + 1} (seed {p['seed']}) DIFFERS in {', '.join(diffs)}")
    correct = all(p["correct"] and c["correct"] for p, c in docs)
    print(f"  every run correct: {correct}")
print(f"{differing} pair(s) differing in a witness, an op count or a virtual-time metric")
sys.exit(1 if differing else 0)
EOF
