#!/usr/bin/env bash
# Tier-1 gate: build, tests, formatting, and lints for the whole workspace
# (repo crates and vendored stand-ins alike), doc links for the repo crates. Run from anywhere; operates
# on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (crates/* only: a broken or private intra-doc link is an error)"
# Every package under crates/ is named cpms-<directory>.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps $(ls crates | sed 's/^/-p cpms-/')

echo "==> metrics smoke (request_latency --smoke)"
cargo run --release -q -p cpms-bench --bin request_latency -- --smoke

echo "==> networked broker smoke (cpms-broker --smoke: loopback TCP + fault injection)"
cargo run --release -q -p cpms-mgmt --bin cpms-broker -- --smoke

echo "==> content shipping smoke (cpms-ship --smoke: loopback TCP ship under 20% loss + anti-entropy)"
cargo run --release -q -p cpms-mgmt --bin cpms-ship -- --smoke

echo "==> proxy data-plane smoke (cpms-proxy --smoke: 400-conn churn relay, overload 503s, tenant caps)"
timeout --signal=KILL 120 ./target/release/cpms-proxy --smoke

echo "==> remote console (cpms-console: a clean script exits 0 and audits consistent; a failed command exits 1)"
console_out=$(printf 'publish /ci/a.html html 1024 0,1\nls\naudit\n' | ./target/release/cpms-console 3 16)
grep -q '^consistent' <<<"$console_out"
console_status=0
printf 'delete /nope\n' | ./target/release/cpms-console 3 16 >/dev/null 2>&1 || console_status=$?
if [ "$console_status" -ne 1 ]; then
    echo "ci: cpms-console exited $console_status on a failed command, want 1"
    exit 1
fi

echo "==> cluster lab smoke (cpms-lab --smoke: 5 real processes, partition + kill chaos;"
echo "    tracing gate: merged traces.json must have zero orphan spans and a cross-process trace;"
echo "    SLO gate: the kill fault must trip the proxy watchdog into breach and the breach must clear)"
# Belt and braces on the wall clock: the scenario's own watchdog caps the
# run at 90 s (exit 3); `timeout` backstops even a wedged watchdog. The
# release cpms-lab must run from target/release so it finds its sibling
# cpms-broker / cpms-proxy binaries next to itself.
timeout --signal=KILL 150 ./target/release/cpms-lab --smoke

echo "==> benchmark harness (perfbench/ is a workspace of its own: its tests, then cpms-bench run --smoke,"
echo "    so an API drift in crates/ that breaks the benchmark fails here and not in the benchmark pipeline;"
echo "    --locked + git diff: a dependency-set change under crates/ must fail here, not rewrite the frozen perfbench/Cargo.lock)"
cargo test --release --locked --manifest-path perfbench/Cargo.toml
timeout --signal=KILL 180 cargo run --release --locked --quiet --manifest-path perfbench/Cargo.toml --bin cpms-bench -- run --smoke
git diff --exit-code -- perfbench BENCHMARK.json

echo "==> .rs lines per crate (ROADMAP item 7's count: crates/*, tests included)"
for crate in crates/*; do
    printf '%-18s %6d\n' "$crate" "$(find "$crate" -name '*.rs' -exec cat {} + | wc -l)"
done
printf '%-18s %6d\n' total "$(find crates -name '*.rs' -exec cat {} + | wc -l)"

echo "ci: all gates passed"
