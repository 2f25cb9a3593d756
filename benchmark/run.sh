#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--agree]
#       the whole suite, one child process per workload; writes
#       benchmark/out/results.json (and trace.json with --trace)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of output is its JSON result
#
# See benchmark/README.md for the metrics and the measurement protocol.
set -euo pipefail

# The repository root is the working directory of everything below: the
# crates are path dependencies of benchmark/Cargo.toml, artifact_regen
# reads the committed BENCH_*.json there, and a relative CARGO_TARGET_DIR
# resolves against it.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"

# Cargo replays the crates' cached warnings on every invocation; keep them
# out of the way unless the build fails.
mkdir -p "$target"
if ! cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" \
    2> "$target/build.log"; then
    cat "$target/build.log" >&2
    exit 1
fi

# Keep freed memory in the heap between repetitions, so the timed ones
# measure the program and not first-touch page faults (which cost 2-60 us
# each on the development VM and swing a 1.2 s run between 1.5 s and 20 s).
# The cold repetition's cost is still reported (harness.cold_*), and so
# is the memory touched (peak_rss_mb).
#   MMAP_THRESHOLD: no allocation is served by a private mmap that is
#                   returned to the kernel on free;
#   TRIM_THRESHOLD: the main heap is never shrunk;
#   ARENA_MAX=1:    worker threads allocate from the main heap; per-thread
#                   arenas unmap their 64 MB sub-heaps whenever one empties,
#                   whatever the trim threshold says.
export MALLOC_MMAP_THRESHOLD_=4294967295
export MALLOC_TRIM_THRESHOLD_=18446744073709551615
export MALLOC_ARENA_MAX=1

exec "$target/release/drs-perfbench" "$@"
