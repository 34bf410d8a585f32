#!/usr/bin/env bash
# CI gate for the anti-persistence workspace. Mirrors the tier-1 verify and
# adds lint/format/bench-compilation gates. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --release -q -p block-store -p pma -p dict-server -p ap-bench (the block-hash kernel, the crash-state enumeration of every barrier of a commit run, the in-place rebuild and its hard asserts, the racing-leaders and panic-containment tests as the benchmark runs them: optimised, debug assertions out; and every paper anchor's verdict at smoke size: fig2, space, overhead, chi2, thm1, thm2, thm3, obs1, lemma15)"
cargo test --release -q -p block-store -p pma -p dict-server -p ap-bench

echo "==> cargo test --release -q --test determinism --test server_determinism --test history_independence --test shard_history_independence --test deleted_residue (every fingerprint, the golden image, the restart round trips, Lemma 9's oracle and the deleted-record tag oracle as the benchmark builds them: optimised, debug assertions out)"
cargo test --release -q --test determinism --test server_determinism --test history_independence --test shard_history_independence --test deleted_residue

echo "==> cargo clippy -- -D warnings (the determinism gate: clippy.toml's disallowed types and methods, the panic lints, forbidden unsafe, and no stale #[expect])"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo bench --no-run (compile all criterion suites)"
cargo bench --no-run

echo "==> cargo doc --no-deps (API surface must document cleanly)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> smoke-run the update-throughput harness (alloc-free engine gate)"
AP_BENCH_JSON=target/ci_update_rows.json \
    cargo run --release --bin update_throughput -- --smoke >/dev/null

echo "==> smoke-run the block-store I/O harness (DAM-vs-device gate)"
AP_BENCH_JSON=target/ci_blockstore_rows.json \
    cargo run --release --bin block_store_io -- --smoke >/dev/null

echo "==> smoke-run the fault-overhead harness (checksum/scrub cost gate)"
AP_BENCH_JSON=target/ci_fault_rows.json \
    cargo run --release --bin fault_overhead -- --smoke >/dev/null

echo "==> smoke-run dict-server + dict-loadgen (network front-end gate)"
rm -f target/ci_dict_server_addr
cargo run --release --quiet --bin dict-server -- \
    --addr 127.0.0.1:0 --addr-file target/ci_dict_server_addr >/dev/null &
DICT_SERVER_PID=$!
trap 'kill "${DICT_SERVER_PID}" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -s target/ci_dict_server_addr ] && break
    sleep 0.1
done
[ -s target/ci_dict_server_addr ] || { echo "dict-server never bound"; exit 1; }
AP_BENCH_JSON=target/ci_loadgen_rows.json \
    cargo run --release --quiet --bin dict-loadgen -- \
    --smoke --addr "$(cat target/ci_dict_server_addr)" >/dev/null
kill "${DICT_SERVER_PID}" 2>/dev/null || true
trap - EXIT

echo "==> test the benchmark package (outside the workspace: a Server/ServerConfig API break shows here)"
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml >/dev/null

echo "==> smoke-run the net-fault-overhead harness (exactly-once cost gate)"
AP_BENCH_JSON=target/ci_netfault_rows.json \
    cargo run --release --quiet --bin net_fault_overhead -- --smoke >/dev/null

echo "==> validate the bench JSON row dumps (malformed rows fail CI)"
cargo run --release --quiet --bin json_check \
    target/ci_update_rows.json target/ci_blockstore_rows.json \
    target/ci_fault_rows.json target/ci_loadgen_rows.json \
    target/ci_netfault_rows.json BENCH_baseline.json

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
