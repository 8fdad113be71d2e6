#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): formatting, release build, the
# root test suite, every workspace crate's tests in release, the bench
# regression gates, the benchmark package (perfbench/) build and tests,
# clippy (perfbench/ too) and rustdoc.
# CI runs this script as its only tier-1 step. Run from anywhere; exits
# non-zero on the first failure.
#
#   --conform   additionally run the quick conformance gate
#               (`repro conform --quick`, see EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

conform=0
for arg in "$@"; do
  case "$arg" in
    --conform) conform=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

# perfbench/ is its own workspace, so `--all` leaves it out.
echo "== tier-1: formatting (cargo fmt --check) =="
cargo fmt --all --check

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: root test suite =="
cargo test -q

# Every crate's tests, in release; this includes the root package's
# parallel-determinism (threads=1 vs threads=8) and chaos-determinism
# (storm + kill/resume) suites.
echo "== tier-1: workspace tests (every crate, release) =="
cargo test --workspace -q --release

# The campaign (checkpointed) and the Farron eval's supervised rounds.
echo "== tier-1: chaos smoke run (--quick --chaos) =="
ck="$(mktemp -u "${TMPDIR:-/tmp}/tier1-chaos-XXXXXX.json")"
./target/release/repro table1 table4 --quick --chaos "offline=0.05,preempt=0.10,seed=7" --checkpoint "$ck"
rm -f "$ck"

echo "== tier-1: softcore fast-path regression gate (bench --quick) =="
cargo bench -q -p bench --bench softcore_hotpath -- --quick

echo "== tier-1: campaign executor regression gate (bench --quick) =="
cargo bench -q -p bench --bench campaign_hotpath -- --quick

echo "== tier-1: benchmark builds and passes its tests (perfbench) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== tier-1: clippy (every workspace crate, tests and benches too) =="
cargo clippy -q --all-targets --workspace -- -D warnings -D clippy::perf

# perfbench/ is its own workspace and reads the toolchain's public API.
echo "== tier-1: clippy (perfbench) =="
cargo clippy -q --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings -D clippy::perf

# Broken or ambiguous intra-doc links (e.g. to a deleted item) fail here.
echo "== tier-1: rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

if [[ "$conform" -eq 1 ]]; then
  echo "== tier-1: conformance gate (quick) =="
  ./target/release/repro conform --quick
fi

echo "tier-1: OK"
