#!/usr/bin/env bash
# Tier-1 gate: build, tests, formatting, and lints for the whole workspace
# (repo crates and vendored stand-ins alike), doc links for the repo crates. Run from anywhere; operates
# on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> docs name only things that exist (every quoted -p <pkg> --bin|--example|--bench|--test <name> resolves to a file"
echo "    of crates/<pkg>, every backticked repo path to a file,"
echo "    every backticked \`Type::member\` of a repo struct, enum or trait to a fn or field of it)"
docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
unresolved=$( {
    grep -ohE -e '-p cpms-[a-z]+ [^`#]*--(bin|example|bench|test) [A-Za-z0-9_-]+' \
        -e '--manifest-path perfbench/Cargo.toml [^`#]*--bin [A-Za-z0-9_-]+' "${docs[@]}" |
    sed -E 's/^-p cpms-([a-z]+) .*--(bin|example|bench|test) /\1 \2 /; s/^--manifest-path perfbench.* --bin /perfbench bin /' |
    sort -u | while read -r pkg kind name; do
        case "$pkg/$kind/$name" in
            perfbench/bin/cpms-bench) file=perfbench/src/main.rs ;;
            */bin/*) file=crates/$pkg/src/bin/$name.rs ;;
            */example/*) file=crates/$pkg/examples/$name.rs ;;
            */bench/*) file=crates/$pkg/benches/$name.rs ;;
            */test/*) file=crates/$pkg/tests/$name.rs ;;
        esac
        [ -f "$file" ] || echo "    -p cpms-$pkg --$kind $name (no $file)"
    done
    # A path may carry a `::test` or `:line` suffix, end in a slash, or be a
    # glob (`crates/*`).
    grep -ohE '`(crates|tests|perfbench|scripts|examples|configs)/[^` ]*' "${docs[@]}" |
    sed -E 's/^`//; s/::.*$//; s/:[0-9].*$//' | sort -u | while read -r path; do
        compgen -G "${path%/}" >/dev/null || echo "    $path (no such file)"
    done
    # `Type::member` where Type is a struct, enum or trait of the repo: some
    # file defining or implementing Type has `fn member` or a `member:`
    # field, or Type derives Clone and member is `clone`.
    rs=$(find crates perfbench/src -name '*.rs')
    grep -ohE '`[^`]+`' "${docs[@]}" | grep -oE '\b[A-Z][A-Za-z0-9_]*::[a-z_][a-z0-9_]*\b' | sort -u |
    while IFS=: read -r ty _ member; do
        item="(pub(\([a-z]+\))? )?(struct|enum|trait) $ty\b"
        defs=$(grep -lE "^\s*$item" $rs) || continue
        homes=$(grep -lE "^\s*($item|impl(<[^>]*>)? ([A-Za-z0-9_:<>]+ for )?$ty\b)" $rs)
        grep -qE "\bfn $member\b|^\s*(pub(\([a-z]+\))? )?$member:" $homes && continue
        [ "$member" = clone ] && grep -hB4 -E "$item" $defs | grep -q 'derive(.*Clone' && continue
        echo "    $ty::$member (no fn or field $member on $ty)"
    done
} )
if [ -n "$unresolved" ]; then
    echo "ci: the docs name drivers, tests or files that do not exist:"
    echo "$unresolved"
    exit 1
fi

echo "==> the simulator links no daemon crate (cargo tree -p cpms-sim lists none of cpms-dispatch, cpms-wire, cpms-httpd, cpms-mgmt)"
sim_tree=$(cargo tree --locked --offline -p cpms-sim -e normal --prefix none)
if grep -E '^cpms-(dispatch|wire|httpd|mgmt) ' <<<"$sim_tree"; then
    echo "ci: cpms-sim links the daemon crates above"
    exit 1
fi

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

echo "==> §5.2 URL table (sec52_urltable, run from a scratch directory so the checked-in bench_results/ stays as it is:"
echo "    every one of the 1M sampled corpus paths resolves, uncached and through the lookup cache)"
sec52_bin=$PWD/target/release/sec52_urltable
sec52_dir=$(mktemp -d)
(cd "$sec52_dir" && "$sec52_bin")
rm -rf "$sec52_dir"

echo "==> networked broker smoke (cpms-broker --smoke: loopback TCP + fault injection)"
cargo run --release -q -p cpms-mgmt --bin cpms-broker -- --smoke

echo "==> content shipping smoke (cpms-ship --smoke: clean wire <= 1.02 wire bytes and <= 1.55 fnv64 bytes per shipped byte,"
echo "    exactly 14 wire RPCs (a one-chunk copy is one Put), 0 transfers and 0 bytes left staged on both stores;"
echo "    then loopback TCP ship under 20% loss + anti-entropy,"
echo "    whose retries sleep <= 20 ms of backoff in total: a call's first retry goes at once)"
cargo run --release -q -p cpms-mgmt --bin cpms-ship -- --smoke

echo "==> proxy data-plane smoke (cpms-proxy --smoke: 400-conn churn relay, overload and tenant-cap 503s"
echo "    whose bodies are the failure's token (overloaded, tenant_over_cap),"
echo "    1 MiB bodies byte-exact with <= 16 KiB each through user space, the rest spliced;"
echo "    per-request budget: 10,000 keep-alive GETs make 0 poller control calls and <= 0.01 timer arms each)"
timeout --signal=KILL 120 ./target/release/cpms-proxy --smoke

echo "==> remote console (cpms-console: a clean script exits 0 and audits consistent, \`store\` counts its 2 pushes"
echo "    from the shipper's ship_* metrics; a failed command exits 1)"
console_out=$(printf 'publish /ci/a.html html 1024 0,1\nls\naudit\nstore\n' | ./target/release/cpms-console 3 16)
grep -q '^consistent' <<<"$console_out"
grep -q '^transfers: 0 in flight, 2 started total, 0 failed$' <<<"$console_out"
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

echo "==> .rs lines per crate (ROADMAP item 11's count: crates/*, with each crate's tests and examples)"
for crate in crates/*; do
    printf '%-18s %6d\n' "$crate" "$(find "$crate" -name '*.rs' -exec cat {} + | wc -l)"
done
printf '%-18s %6d\n' total "$(find crates -name '*.rs' -exec cat {} + | wc -l)"

echo "ci: all gates passed"
