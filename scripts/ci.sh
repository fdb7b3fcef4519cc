#!/usr/bin/env bash
# CI entry point: build, full test suite, and a crash-oracle smoke sweep.
#
# Proptest regression files (tests/*.proptest-regressions) are committed and
# replayed automatically by proptest before new random cases — the guard
# below fails loudly if one goes missing so a rename can't silently drop
# recorded failures.
set -euo pipefail
cd "$(dirname "$0")/.."
# Quick-mode bench binaries write their BENCH_*.json here, never over the
# committed full-run files at the repo root.
Q=target/bench-quick

echo "== check: proptest regression files present =="
test -f tests/proptest_crash.proptest-regressions \
  || { echo "missing proptest regression file"; exit 1; }

echo "== build (release) =="
cargo build --release --workspace

echo "== test (workspace) =="
cargo test --workspace -q

echo "== cross-tier differential harness (tier-2 must match tier-1) =="
# Named gates for the block-compiled engine: byte-identical images, stats,
# and traces across tiers; the pre-decode goldens reproduced on tier 2;
# and the tier-2 crash-oracle pass (exhaustive explore + sabotage
# self-test). All also run under the workspace pass above — kept explicit
# so a tier-2 regression is called out by name in the CI log.
cargo test -q -p ido-workloads --test tier_equivalence
cargo test -q -p ido-workloads --test decoded_golden
cargo test -q -p ido-vm --test trace_golden
cargo test -q -p ido-crashtest --test tier2_oracle

echo "== crash-oracle walker: verdicts identical to fresh replays =="
# Every (boundary, lost-line subset) verdict of the checkpoint/rollback
# walker equals the fresh-replay check_crash_state, failure text
# included, on every standard workload x durable scheme; with an injected
# bug the shrunk counterexample is the fresh-replay sweep's.
cargo test -q -p ido-crashtest --test walker_identity

echo "== wide crash-oracle gate: map.ido 4 threads x 8 ops, six durable schemes =="
cargo test -q --release -p ido-repro --test corpus -- --ignored wide_crash_oracle

echo "== static atomicity lint + differential smoke (verify_report) =="
# Lints every standard workload under every scheme and cross-checks the
# static verdicts against the crash oracle; any violation or
# static/dynamic disagreement makes the binary assert and fail CI.
IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin verify_report

echo "== crash-oracle smoke sweep =="
IDO_ORACLE_SMOKE=1 cargo run -q --release -p ido-bench --bin crash_oracle

echo "== interpreter throughput smoke (quick mode, tier-1 + tier-2 series) =="
# interp_bench measures every bench on both execution tiers and asserts
# equal step counts per pair, so this smoke also gates tier-2 determinism.
IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin interp_bench

echo "== trace smoke: quick trace_report + JSON/event-kind self-check =="
IDO_BENCH_QUICK=1 IDO_TRACE_SMOKE=1 cargo run -q --release -p ido-bench --bin trace_report

echo "== trace determinism: IDO_JOBS=2 must match IDO_JOBS=1 byte-for-byte =="
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin trace_report > /dev/null
cp target/figures/trace_hash-map.trace.json /tmp/trace_jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin trace_report > /dev/null
cmp /tmp/trace_jobs1.json target/figures/trace_hash-map.trace.json \
  || { echo "IDO_JOBS=2 changed the emitted trace"; exit 1; }
rm -f /tmp/trace_jobs1.json

echo "== interp-throughput smoke with tracing explicitly disabled =="
IDO_TRACE=0 IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin interp_bench

echo "== sweep determinism: IDO_JOBS=2 must match IDO_JOBS=1 =="
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin interp_bench
cp $Q/BENCH_interp.json $Q/BENCH_interp.jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin interp_bench
# Steps (and everything else derived from simulation state) are identical
# across job counts; only wall-clock fields may differ.
diff <(grep -o '"steps": [0-9]*' $Q/BENCH_interp.jobs1.json) \
  <(grep -o '"steps": [0-9]*' $Q/BENCH_interp.json) \
  || { echo "IDO_JOBS=2 changed simulation results"; exit 1; }

echo "== allocator crash sweeps (persist-trap boundary enumeration) =="
# Named gates for the sharded two-level allocator: every-flush-boundary
# interruption sweeps (legacy + sharded policies) and the cross-shard
# property tests. Both also run under the workspace pass above — kept
# explicit so an allocator crash-consistency regression is named in the
# CI log.
cargo test -q -p ido-nvm --test alloc_crash
cargo test -q -p ido-nvm --test alloc_shard

echo "== windowed metrics gates: golden series, fan-out determinism, zero-alloc =="
# Named gates for the metrics subsystem: the checked-in iDO window-series
# golden, the jobs-invariant shard fan-out, and the metered hot loop's
# zero-allocation pin. All also run under the workspace pass above.
cargo test -q -p ido-workloads --test service_metrics
cargo test -q -p ido-workloads --test no_alloc_hot_loop

echo "== service bench smoke (crash under load, online-recovery windows) =="
# The binary itself asserts the crash lands mid-traffic for every durable
# scheme, re-verifies the recovered table, and validates every emitted
# JSON artifact before writing it.
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin service_bench
cp $Q/BENCH_service.json $Q/BENCH_service.jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin service_bench
# BENCH_service.json holds only simulated quantities, so it must be
# byte-identical for any worker count.
cmp $Q/BENCH_service.jobs1.json $Q/BENCH_service.json \
  || { echo "IDO_JOBS=2 changed service bench results"; exit 1; }

echo "== metrics-off overhead guard (best-of-7 wall ns/step) =="
# Disabled metrics must stay one untaken branch per marker: the guard
# compares per-step wall cost of a marked vs unmarked hot loop and fails
# CI if the disabled path grows past the tolerance.
IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin metrics_guard

echo "== lock-free scheme gates: oracle sweeps, differential, rcas proptests =="
# Named gates for the recoverable lock-free family: exhaustive crash
# exploration of the lock-free list/map on both execution tiers (clean
# sweeps + injected window-flush/publish bugs caught), the seed
# structures' native invariant checkers under oracle exploration, the
# static/dynamic differential on the lock-free invariants, the
# crash-at-every-persist-boundary rcas proptests, and the metrics
# span-accounting regression tests. All also run under the workspace
# pass above — kept explicit so a lock-free crash-consistency
# regression is named in the CI log.
cargo test -q -p ido-crashtest --test lockfree_oracle
cargo test -q -p ido-crashtest --test structures_oracle
cargo test -q -p ido-verify --test lockfree_differential
cargo test -q -p ido-lockfree --test rcas_proptest
cargo test -q -p ido-metrics

echo "== lock-free contention smoke (quick mode, window <= eager clwb gate) =="
# The binary itself asserts every point completes and that window
# flushing never issues more clwbs than eager flushing.
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin lockfree_bench
cp $Q/BENCH_lockfree.json $Q/BENCH_lockfree.jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin lockfree_bench
# BENCH_lockfree.json holds only simulated quantities, so it must be
# byte-identical for any worker count.
cmp $Q/BENCH_lockfree.jobs1.json $Q/BENCH_lockfree.json \
  || { echo "IDO_JOBS=2 changed lock-free bench results"; exit 1; }

echo "== allocator scaling smoke (quick mode, asserts >= 4x at 64T) =="
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin alloc_bench
cp $Q/BENCH_alloc.json $Q/BENCH_alloc.jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin alloc_bench
# BENCH_alloc.json holds only simulated quantities, so it must be
# byte-identical for any worker count.
cmp $Q/BENCH_alloc.jobs1.json $Q/BENCH_alloc.json \
  || { echo "IDO_JOBS=2 changed allocator bench results"; exit 1; }

echo "== textual frontend gates: corpus round-trip, diagnostics goldens, fuzz =="
# Named gates for the `.ido` frontend: the corpus suite (parse +
# pretty-print round-trip, both-tier byte-identity vs the Rust builder,
# mutation fuzz, crash-oracle smoke), the random-program round-trip
# fuzzer, and the pinned parser/explain diagnostic renderings. All also
# run under the workspace pass above — kept explicit so a frontend
# regression is named in the CI log.
cargo test -q -p ido-repro --test corpus
cargo test -q -p ido-lang --test roundtrip_fuzz
cargo test -q -p ido-lang --test diagnostics_golden
cargo test -q -p ido-lang --test explain_golden

echo "== ido verify over the scenario corpus (static atomicity, all schemes) =="
# Every checked-in scenario must verify clean under every scheme it names.
for f in corpus/*.ido; do
  cargo run -q --release -p ido-repro --bin ido -- verify "$f"
done

echo "== ido run --compare-builder: corpus runs byte-identical to the builder =="
# The CLI re-runs each scheme from the native Rust-builder program and
# requires identical steps, simulated clocks, stats, and pool-image hash.
for f in corpus/*.ido; do
  cargo run -q --release -p ido-repro --bin ido -- run "$f" --compare-builder > /dev/null
done

echo "== ido run determinism: --jobs 2 must match --jobs 1 byte-for-byte =="
cargo run -q --release -p ido-repro --bin ido -- run corpus/map.ido --jobs 1 \
  > /tmp/ido_run_jobs1.json
cargo run -q --release -p ido-repro --bin ido -- run corpus/map.ido --jobs 2 \
  > /tmp/ido_run_jobs2.json
cmp /tmp/ido_run_jobs1.json /tmp/ido_run_jobs2.json \
  || { echo "--jobs 2 changed ido run output"; exit 1; }
IDO_JOBS=2 cargo run -q --release -p ido-repro --bin ido -- run corpus/map.ido \
  > /tmp/ido_run_envjobs.json
cmp /tmp/ido_run_jobs1.json /tmp/ido_run_envjobs.json \
  || { echo "IDO_JOBS=2 changed ido run output"; exit 1; }
rm -f /tmp/ido_run_jobs1.json /tmp/ido_run_jobs2.json /tmp/ido_run_envjobs.json

echo "== perfbench smoke: the benchmark builds and runs clean against the crates =="
# perfbench is its own package, outside the workspace, so nothing above
# builds it: a crate API change that breaks the benchmark would go
# unnoticed until the benchmark runs. Each workload runs a short window;
# its result line must report "correct": true and "failed": 0.
cargo build --offline --release --manifest-path perfbench/Cargo.toml
for w in scenario_e2e crash_oracle; do
  line=$(cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  echo "$w: $line"
  case "$line" in
    *'"correct": true, '*'"failed": 0, '*) ;;
    *) echo "perfbench $w did not run clean"; exit 1 ;;
  esac
done

echo "CI OK"
