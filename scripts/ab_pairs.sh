#!/usr/bin/env bash
# Runs two already-built drs-perfbench binaries in alternation and
# summarises every end-to-end metric of one workload:
#
#   scripts/ab_pairs.sh <parent-bin> <change-bin> <workload> [pairs] [seconds]
#
# Each of the `pairs` rounds (default 10) runs both binaries, odd rounds
# the parent first and even rounds the change first, so a first-run-of-a-
# pair effect falls on each side equally; each runs as `--workload
# <workload> --seed $SEED --seconds <seconds> --trace 0` (SEED defaults
# to 42, seconds to 10), each from its own
# checkout's root (artifact_regen byte-checks the BENCH_*.json it finds
# there) and under benchmark/run.sh's malloc settings. It prints, per
# metric, each side's median and quartiles, the change's median over the
# parent's, the number of pairs in which the change read lower (all four
# end-to-end metrics are lower-is-better) and every run's value in run
# order; then each run's `cpu_user_s / wall_s`, which reads about 1 for a
# run whose threads shared one CPU and above 1 for one that got two (the
# host can take a vCPU away for minutes at a time, so a two-thread gain
# is only comparable between runs whose ratios agree); then every
# distinct `result_digest`, `correct` and `failed` value of each side.
#
# Build the binaries first, e.g. for a checkout in $DIR:
#   cargo build --release --offline --manifest-path $DIR/benchmark/Cargo.toml \
#       --target-dir $DIR/benchmark/target
# and pass $DIR/benchmark/target/release/drs-perfbench; a binary at any
# other path is refused. The runs' output goes to a temporary directory
# that is removed on exit.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    sed -n '4p' "$0" >&2
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
workload=$3
pairs=${4:-10}
seconds=${5:-10}
seed=${SEED:-42}
# The checkout a binary was built from: <root>/benchmark/target/release/drs-perfbench.
root_of() {
    local root=${1%/benchmark/target/release/drs-perfbench}
    if [ "$root" = "$1" ] || [ ! -d "$root/benchmark" ]; then
        echo "not <checkout>/benchmark/target/release/drs-perfbench: $1" >&2
        exit 2
    fi
    echo "$root"
}
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "not an executable: $bin" >&2; exit 2; }
done
parent_root=$(root_of "$parent")
change_root=$(root_of "$change")

# Same reasons as in benchmark/run.sh: the timed repetitions reuse freed
# memory instead of paying first-touch page faults.
export MALLOC_MMAP_THRESHOLD_=4294967295
export MALLOC_TRIM_THRESHOLD_=18446744073709551615
export MALLOC_ARENA_MAX=1

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for i in $(seq 1 "$pairs"); do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        bin=$parent root=$parent_root
        [ "$side" = change ] && bin=$change root=$change_root
        # artifact_regen reads the committed BENCH_*.json from the working directory.
        (cd "$root" && "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
            > "$out/$side.$i" 2> "$out/$side.$i.err" || {
            echo "$side run $i failed:" >&2
            tail -5 "$out/$side.$i.err" >&2
            exit 1
        }
    done
    echo "pair $i/$pairs done (${order/ / first, then })" >&2
done

python3 - "$out" "$pairs" "$workload" <<'PY'
import json, statistics, sys

out, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
runs = {side: [] for side in ("parent", "change")}
digests = {side: set() for side in runs}
for side in runs:
    for i in range(1, pairs + 1):
        lines = open(f"{out}/{side}.{i}").read().splitlines()
        result = json.loads(lines[-1])
        runs[side].append(result)
        digests[side].update(l.split()[-1] for l in lines if l.startswith("result_digest"))

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{workload}: {pairs} alternating pairs, median [q1, q3]")
for name in runs["parent"][0]["metrics"]:
    unit = runs["parent"][0]["metrics"][name]["unit"]
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    wins = sum(b < a for a, b in zip(p, c))
    ratio = f"{cm / pm - 1:+.1%}" if pm else "n/a"
    print(f"  {name:12s} {pm:.6g} [{pq1:.6g}, {pq3:.6g}] -> {cm:.6g} [{cq1:.6g}, {cq3:.6g}] {unit}"
          f"  {ratio}, change lower in {wins}/{pairs}")
    print(f"  {'':12s} runs: parent {' '.join(f'{x:.6g}' for x in p)}; change {' '.join(f'{x:.6g}' for x in c)}")
metrics = runs["parent"][0]["metrics"]
if "cpu_user_s" in metrics and "wall_s" in metrics:
    def cpu_per_wall(r):
        m = r["metrics"]
        wall = m["wall_s"]["value"]
        return f"{m['cpu_user_s']['value'] / wall:.2f}" if wall else "n/a"
    print(f"  cpu_user_s / wall_s per run: parent {' '.join(cpu_per_wall(r) for r in runs['parent'])};"
          f" change {' '.join(cpu_per_wall(r) for r in runs['change'])}")
for side in runs:
    correct = sorted({r["correct"] for r in runs[side]})
    failed = sorted({r["failed"] for r in runs[side]})
    print(f"  {side}: result_digest {' '.join(sorted(digests[side]))}"
          f"  correct {correct}  failed {failed}")
PY
