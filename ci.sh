#!/usr/bin/env bash
# CI gate for the anti-persistence workspace. Mirrors the tier-1 verify and
# adds lint, format and doc gates. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --release -q -p block-store -p pma -p dict-server -p ap-bench (the block-hash kernel, the crash-state enumeration of every barrier of a commit run, the remnant scan of the strict device for deleted records' tags (no_deleted_record_survives_on_the_strict_device), the in-place rebuild and its hard asserts, the racing-leaders and panic-containment tests as the benchmark runs them: optimised, debug assertions out; the dict-server binary booted, served, killed and rebooted on its file; and every paper anchor's verdict at smoke size: fig2, space, overhead, chi2, thm1, thm2, thm3, obs1, lemma15)"
cargo test --release -q -p block-store -p pma -p dict-server -p ap-bench

echo "==> cargo test --release -q --test determinism --test server_determinism --test history_independence --test shard_history_independence --test deleted_residue --test alloc_regression (every fingerprint, the golden image, the restart round trips, Lemma 9's oracle, the deleted-record tag oracle (a served boot from a stored image included), the allocation-free update pins and the heap-footprint pins (a shrunk or reloaded HI-PMA holds the live bytes of a fresh one of its geometry, and a shrunk classic PMA those of a fresh one given only its contents) as the benchmark builds them: optimised, debug assertions out)"
cargo test --release -q --test determinism --test server_determinism --test history_independence --test shard_history_independence --test deleted_residue --test alloc_regression

echo "==> cargo clippy -- -D warnings (the determinism gate: clippy.toml's disallowed types and methods, the panic lints, forbidden unsafe, and no stale #[expect])"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps (API surface must document cleanly)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> test the benchmark package (outside the workspace: a Server/ServerConfig API break shows here)"
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml >/dev/null

echo "==> validate the committed ledger's JSON rows (a malformed row fails CI)"
cargo run --release --quiet --bin json_check BENCH_baseline.json

echo "==> run the chaos soak battery (fixed seeds, smoke sweep)"
CHAOS_SMOKE=1 cargo test -q --test chaos_soak >/dev/null

echo "==> run the network chaos soak battery (wire faults, smoke sweep)"
CHAOS_SMOKE=1 cargo test -q --test net_chaos_soak >/dev/null

echo "==> run every example (builder/DynDict API regressions fail here)"
for example in quickstart range_query_engine secure_delete_audit io_model_explorer; do
    echo "    --example ${example}"
    cargo run --release --quiet --example "${example}" >/dev/null
done

echo "CI OK"
