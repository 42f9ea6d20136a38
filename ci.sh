#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test pass.
# Run from the repo root; fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== line budget: harness crates and binaries"
# The harness crates and the binaries must not grow back: the budget is
# their line count (unit tests included) when the shared flag table
# replaced the per-binary parsers. Lower it when a change shrinks them;
# a change that must raise it says why in CHANGES.md.
HARNESS_BUDGET=9812
HARNESS_LINES="$(cat crates/fleet/src/*.rs crates/serve/src/*.rs crates/replica/src/*.rs \
  src/bin/*.rs crates/bench/src/bin/*.rs | wc -l)"
if [ "$HARNESS_LINES" -gt "$HARNESS_BUDGET" ]; then
  echo "harness crates and bins hold $HARNESS_LINES lines, over the budget of $HARNESS_BUDGET" >&2
  exit 1
fi
echo "$HARNESS_LINES of $HARNESS_BUDGET lines"

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release"
cargo build --release
# Workspace-member bins the smokes below invoke (simbench lives in
# crates/bench and is not built by the root-package build above).
cargo build --release --workspace

echo "== tier-1: cargo test -q"
cargo test -q

echo "== workspace tests"
cargo test -q --workspace

echo "== smoke: fleetbench checkpoint / kill / resume"
SMOKE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/indra-ci-smoke.XXXXXX")"
trap 'rm -rf "$SMOKE_DIR"' EXIT
./target/release/fleetbench \
  --shards 2 --requests 8 --scale 30 --attack-per-mille 200 \
  --checkpoint-every 3 --store "$SMOKE_DIR" --halt-after 1
./target/release/fleetbench --resume "$SMOKE_DIR"

echo "== smoke: fleetbench chaos campaign (supervised revival)"
# The default chaos profile kills shards, tears journal tails and fires
# guest fault bursts; the run must finish on its own, actually revive
# something, and lose no request to quarantine or abandonment. The
# timeout guards against a supervisor livelock ever landing on main.
CHAOS_JSON="$SMOKE_DIR/BENCH_chaos_smoke.json"
timeout 300 ./target/release/fleetbench \
  --chaos default --quick --chaos-out "$CHAOS_JSON" \
  --assert-revivals-min 1 --assert-availability-min 0.99
grep -qF '"profile":"default"' "$CHAOS_JSON" || {
  echo "BENCH_chaos_smoke.json is missing the default profile run" >&2
  exit 1
}

echo "== smoke: replica voting masks stealth corruption"
# Three replicas per shard under the stealth profile: silent guest-memory
# bit flips the monitor never sees. The run must catch at least one
# divergence by voting, fire at least one scheduled rejuvenation, and —
# the headline property — produce FleetStats byte-identical to the same
# run with chaos off (the fault is masked, not merely reported).
REPLICA_CLEAN="$SMOKE_DIR/replica_clean_stats.json"
REPLICA_STEALTH="$SMOKE_DIR/replica_stealth_stats.json"
timeout 300 ./target/release/fleetbench \
  --quick --replicas 3 --rejuvenate-every 4 --chaos-out "$REPLICA_CLEAN"
timeout 300 ./target/release/fleetbench \
  --quick --replicas 3 --rejuvenate-every 4 --chaos stealth \
  --chaos-out "$REPLICA_STEALTH" \
  --assert-divergences-min 1 --assert-revivals-min 2
cmp "$REPLICA_CLEAN" "$REPLICA_STEALTH" || {
  echo "stealth run's FleetStats diverged from the chaos-free run" >&2
  exit 1
}

echo "== smoke: replica revivals ignore a reused store's old checkpoints"
# The same stealth run twice on one --store dir: the second pass finds
# the first pass's checkpoints there, and a revival must restore only a
# checkpoint its own run wrote. Both passes must match the chaos-free
# stats byte for byte.
REPLICA_STORE="$SMOKE_DIR/replica-store"
for pass in 1 2; do
  REPLICA_REUSED="$SMOKE_DIR/replica_reused_${pass}_stats.json"
  timeout 300 ./target/release/fleetbench \
    --quick --replicas 3 --rejuvenate-every 4 --chaos stealth \
    --store "$REPLICA_STORE" --chaos-out "$REPLICA_REUSED" \
    --assert-divergences-min 1
  cmp "$REPLICA_CLEAN" "$REPLICA_REUSED" || {
    echo "stealth pass $pass on a reused --store diverged from the chaos-free run" >&2
    exit 1
  }
done

echo "== smoke: replica bench finishes and aggregates across K and cadences"
# The quick replica sweep drives the group's finish/aggregate path at
# K = 1/2/3 and three rejuvenation cadences. Every voting row (K = 2
# and K = 3) must catch each stealth strike and end with stats
# byte-identical to its clean run.
REPLICA_BENCH="$SMOKE_DIR/BENCH_replica_smoke.json"
timeout 300 ./target/release/fleetbench --replica-bench --quick --chaos-out "$REPLICA_BENCH"
for k in 2 3; do
  grep -qE "\"kind\":\"stealth\",\"replicas\":$k,[^}]*\"detection_rate\":1,[^}]*\"stats_identical_to_clean\":true" \
    "$REPLICA_BENCH" || {
    echo "replica bench K=$k stealth row missed a strike or moved the stats:" >&2
    cat "$REPLICA_BENCH" >&2
    exit 1
  }
done

echo "== smoke: perfbench serve_httpd_k3 correctness gate"
# One short pass of the benchmark's K=3 workload. perfbench exits 1
# unless replay reproduces the live stats byte for byte, the replicas
# never diverge and every exploit is detected, so a digest change that
# splits honest replicas fails here. It runs from the smoke dir because
# it keeps its state dirs under the working directory.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
PERFBENCH="$PWD/perfbench/target/release/indra-perfbench"
PERF_OUT="$SMOKE_DIR/perfbench.out"
if ! (cd "$SMOKE_DIR" && timeout 300 "$PERFBENCH" \
        --workload serve_httpd_k3 --seed 1 --seconds 1 --trace 0) > "$PERF_OUT" ||
   ! tail -n 1 "$PERF_OUT" | grep -qF '"correct": true'; then
  echo "perfbench serve_httpd_k3 did not report a correct run:" >&2
  tail -n 5 "$PERF_OUT" >&2
  exit 1
fi

echo "== smoke: fleetd service loop + deterministic replay"
# Boot the serve daemon on an ephemeral loopback port, drive it with the
# open-loop load generator (which probes HEALTH and asserts at least one
# live detection), shut it down gracefully over the wire, then replay
# the ingress logs — the replayed stats must be byte-identical to the
# FLEET_stats.json the live daemon wrote at shutdown.
SERVE_STATE="$SMOKE_DIR/serve-state"
SERVE_LOG="$SMOKE_DIR/fleetd.log"
timeout 300 ./target/release/fleetd --quick --state "$SERVE_STATE" \
  > "$SERVE_LOG" 2>&1 &
FLEETD_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 150); do
  SERVE_ADDR="$(sed -n 's/^fleetd listening on //p' "$SERVE_LOG")"
  [ -n "$SERVE_ADDR" ] && break
  kill -0 "$FLEETD_PID" 2>/dev/null || {
    echo "fleetd died before announcing its port:" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  }
  sleep 0.2
done
[ -n "$SERVE_ADDR" ] || { echo "fleetd never announced its port" >&2; exit 1; }
timeout 120 ./target/release/loadgen --quick --addr "$SERVE_ADDR" \
  --assert-min-detections 1 --shutdown --out "$SMOKE_DIR/loadgen.json"
wait "$FLEETD_PID"
timeout 120 ./target/release/fleetd --replay "$SERVE_STATE" \
  --out "$SMOKE_DIR/replay.json" > /dev/null
cmp "$SERVE_STATE/FLEET_stats.json" "$SMOKE_DIR/replay.json" || {
  echo "replay diverged from the live FLEET_stats.json" >&2
  exit 1
}

echo "== smoke: simbench host-MIPS floor"
# Short deterministic workloads; --min-mips is a conservative regression
# guard (the superblock engine runs the compute workload several times
# faster than this floor), not a tight gate.
SIMBENCH_JSON="$SMOKE_DIR/BENCH_simcore.json"
./target/release/simbench --quick --out "$SIMBENCH_JSON" --min-mips 12
for key in '"bench":"simcore"' '"quick":true' '"superblocks":true' '"workloads"' \
           '"name":"compute"' '"name":"memory"' '"name":"attack_mix"' \
           '"insns"' '"wall_seconds"' '"mips"'; do
  grep -qF "$key" "$SIMBENCH_JSON" || {
    echo "BENCH_simcore.json is missing $key" >&2
    exit 1
  }
done

echo "== smoke: superblocks off is byte-identical"
# The superblock engine is a host-side optimization: the deterministic
# FleetStats must not move by a single byte when it is disabled — even
# under the K=3 voting executor. The reference is the replica-clean
# stats written by the stage above (superblocks on, chaos off).
SB_OFF="$SMOKE_DIR/sb_off_stats.json"
timeout 300 ./target/release/fleetbench \
  --quick --replicas 3 --rejuvenate-every 4 --no-superblocks \
  --chaos-out "$SB_OFF"
cmp "$REPLICA_CLEAN" "$SB_OFF" || {
  echo "FleetStats changed when the superblock engine was disabled" >&2
  exit 1
}

echo "== smoke: compartment rewind-and-discard"
# An attack mix over every Table 2 family must fire at least one
# compartment discard (the dormant family's sealed-planter heal) while
# losing zero benign requests — the tentpole's requests-lost bar.
COMPART_JSON="$SMOKE_DIR/BENCH_compartment.json"
timeout 300 ./target/release/compartmentbench --quick \
  --out "$COMPART_JSON" --assert-discards-min 1 --assert-benign-lost-max 0
for key in '"bench":"compartment"' '"family":"dormant"' '"benign_lost_on":0' \
           '"discards_on"' '"wal_bytes"' '"wal_pages"'; do
  grep -qF "$key" "$COMPART_JSON" || {
    echo "BENCH_compartment.json is missing $key" >&2
    exit 1
  }
done

echo "== smoke: compartments off is byte-identical when attack-free"
# Compartment tracking is free on the hot path: with no attacks and no
# faults the deterministic FleetStats must not move by a single byte
# when the feature is disabled. (Under attack it changes outcomes by
# design, so the equivalence leg pins attack-per-mille 0.)
CMP_ON="$SMOKE_DIR/compartments_on_stats.json"
CMP_OFF="$SMOKE_DIR/compartments_off_stats.json"
timeout 300 ./target/release/fleetbench \
  --quick --replicas 3 --attack-per-mille 0 --chaos-out "$CMP_ON"
timeout 300 ./target/release/fleetbench \
  --quick --replicas 3 --attack-per-mille 0 --no-compartments \
  --chaos-out "$CMP_OFF"
cmp "$CMP_ON" "$CMP_OFF" || {
  echo "FleetStats changed when compartments were disabled on attack-free traffic" >&2
  exit 1
}

echo "== static analysis: benign workloads lint clean"
# Every shipped service must pass the CFI lint with zero findings —
# `lint` exits nonzero on any finding, and we pin the empty findings
# array so a silently-degraded JSON shape can't fake a pass.
for app in ftpd httpd bind sendmail imap nfs; do
  LINT_JSON="$(./target/release/ir32 lint --app "$app" --scale 20 --json)"
  echo "$LINT_JSON" | grep -qF '"findings":[]' || {
    echo "ir32 lint --app $app reported findings: $LINT_JSON" >&2
    exit 1
  }
done

echo "== static analysis: fixtures trigger their expected findings"
# results/ANALYZE_expected.json carries two sections: "fixtures" maps
# fixture name -> finding kind (the analyzer must report exactly the
# advertised kind for each), and "surface" locks every stock app's
# attack-surface score (gated below).
FIXTURES="$(sed -n 's/.*"fixtures":{\([^}]*\)}.*/\1/p' results/ANALYZE_expected.json \
  | tr ',' '\n' | tr -d '"')"
[ -n "$FIXTURES" ] || { echo "ANALYZE_expected.json: fixtures section parsed empty" >&2; exit 1; }
while IFS=: read -r name kind; do
  ./target/release/ir32 analyze --fixture "$name" --json \
    | grep -qF "\"kind\":\"$kind\"" || {
    echo "fixture $name did not report finding kind $kind" >&2
    exit 1
  }
done <<< "$FIXTURES"

echo "== static analysis: benign attack-surface scores are locked"
# `ir32 gadgets` prices the residual in-policy surface of every stock
# workload; the committed scores are a regression lock — a new dispatch
# site, writable slot or registered target moves the number and must be
# acknowledged by updating results/ANALYZE_expected.json.
SURFACE="$(sed -n 's/.*"surface":{\([^}]*\)}.*/\1/p' results/ANALYZE_expected.json \
  | tr ',' '\n' | tr -d '"')"
[ -n "$SURFACE" ] || { echo "ANALYZE_expected.json: surface section parsed empty" >&2; exit 1; }
while IFS=: read -r app score; do
  GADGET_JSON="$(./target/release/ir32 gadgets --app "$app" --scale 20 --json || true)"
  echo "$GADGET_JSON" | grep -qF "\"attack_surface\":$score" || {
    echo "ir32 gadgets --app $app surface moved off the locked score $score" >&2
    echo "$GADGET_JSON" >&2
    exit 1
  }
done <<< "$SURFACE"

echo "== smoke: red-team campaign is deterministic and scores detections"
# Two quick campaigns from the same seed must produce byte-identical
# JSON (no wall-clock leaks into the report), exercise all four attack
# families, score at least one detection — and keep at least one
# payload that runs undetected (the in-policy JOP plant the gadget
# finder predicts).
RT_A="$SMOKE_DIR/BENCH_redteam_a.json"
RT_B="$SMOKE_DIR/BENCH_redteam_b.json"
timeout 300 ./target/release/redteambench --quick --seed 7 --out "$RT_A" \
  --assert-families-min 4 --assert-detections-min 1 --assert-undetected-min 1
timeout 300 ./target/release/redteambench --quick --seed 7 --out "$RT_B" > /dev/null
cmp "$RT_A" "$RT_B" || {
  echo "redteambench output is not byte-deterministic for a fixed seed" >&2
  exit 1
}
for key in '"bench":"redteam"' '"family":"jop_chain"' '"family":"rop_ret"' \
           '"family":"dormant_span"' '"family":"exhaust"' '"latency"'; do
  grep -qF "$key" "$RT_A" || {
    echo "BENCH_redteam json is missing $key" >&2
    exit 1
  }
done

echo "== red-team corpus replays to its pinned outcomes"
cargo test -q --test redteam_corpus

echo "CI green."
