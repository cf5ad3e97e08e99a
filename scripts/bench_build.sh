#!/usr/bin/env bash
# Builds the repo benchmark of one checkout and leaves its tracked files
# as they were.
#
#   scripts/bench_build.sh [DIR]     # DIR defaults to this checkout
#
# `benchmark/` is a cargo workspace of its own with a tracked
# `Cargo.lock`, and it is frozen to every PR that does not re-anchor the
# benchmark. Cargo rewrites that lock in place whenever a crate's
# dependency list has moved since it was committed (no `--locked`: the
# benchmark's own command does not pass it either), and a later
# `git add -A` then commits a change under `benchmark/`. So the lock is
# copied aside before the build and copied back after it, whether DIR is
# a git checkout or a `git archive` copy. The binary lands in
# DIR/benchmark/target/release/nox-benchmark. Ends with a warning if
# git sees anything modified under BENCHMARK.json or benchmark/, which
# then was modified before this script ran (a plain `cargo run
# --manifest-path benchmark/Cargo.toml`, say).
set -euo pipefail
unset CARGO_TARGET_DIR # each checkout builds into its own benchmark/target

dir=$(cd "${1:-$(dirname "$0")/..}" && pwd)
lock="$dir/benchmark/Cargo.lock"
mkdir -p "$dir/benchmark/out"
keep="$dir/benchmark/out/Cargo.lock.keep"

cp "$lock" "$keep"
status=0
cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml" || status=$?
cat "$keep" >"$lock"
rm -f "$keep"

if dirty=$(git -C "$dir" status --porcelain -- BENCHMARK.json benchmark 2>/dev/null) && [ -n "$dirty" ]; then
    printf 'warning: %s has changes under the frozen benchmark; restore them before committing:\n%s\n' \
        "$dir" "$dirty" >&2
fi
exit "$status"
