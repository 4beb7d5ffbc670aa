#!/usr/bin/env bash
# Tier-1 gate: hermetic build, full test suite, and a 2-circuit smoke run.
# Must pass with no network access — the workspace has zero external deps.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# The smoke runs' reports and logs go to a private directory, so that
# concurrent runs do not overwrite each other's results; it is removed on
# exit, pass or fail.
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== tier1: build (release, offline) =="
cargo build --release --workspace

echo "== tier1: tests (the per-crate property suites included) =="
cargo test --release --workspace -q

echo "== tier1: fuzz smoke (fixed seeds, bounded verify budget + deadline) =="
cargo run --release -p nshot-bench --bin nshot-fuzz -- \
  --seeds 0..200 --budget 50000 --deadline-ms 480000 \
  --out "$WORK/BENCH_fuzz_smoke.json" --archive tests/corpus/generated
grep -q '"new_violations": 0' "$WORK/BENCH_fuzz_smoke.json" \
  || { echo "fuzz smoke found an unarchived violation:"; cat "$WORK/BENCH_fuzz_smoke.json"; exit 1; }

echo "== tier1: generated-corpus regression (archived specs re-verify) =="
cargo run --release -p nshot-bench --bin nshot-fuzz -- \
  --corpus --archive tests/corpus/generated --budget 200000 \
  --out "$WORK/BENCH_fuzz_corpus.json"

echo "== tier1: wire frame-mutation smoke (>=200 mutants, zero panics) =="
# Mutated binary frames must decode to typed WireErrors — never a panic
# or over-read. The run re-archives the minimized witness per failure
# class, so a wire-format change shows up as a tests/corpus diff.
cargo run --release -p nshot-bench --bin nshot-fuzz -- \
  --wire-mutations 240 --wire-archive tests/corpus/malformed/wire \
  --out "$WORK/BENCH_wire_fuzz.json"
grep -q '"panics": 0' "$WORK/BENCH_wire_fuzz.json" \
  || { echo "wire mutation smoke panicked:"; cat "$WORK/BENCH_wire_fuzz.json"; exit 1; }

echo "== tier1: model-checker smoke (1-circuit proof, heartbeats on) =="
NSHOT_PROGRESS=stderr \
  cargo run --release -p nshot-bench --bin modelcheck -- chu133 "$WORK/BENCH_mc_smoke.json" \
  2> "$WORK/mc_smoke_stderr.log"
grep -q '"all_hazard_free": true' "$WORK/BENCH_mc_smoke.json" \
  || { echo "modelcheck smoke did not prove chu133"; exit 1; }
# With progress on, every check emits at least an opening and a final
# heartbeat; the verdicts above must be identical either way (the run's
# own cross-thread byte-identity assertion covers that).
grep -q '{"hb":"mc:chu133","seq":' "$WORK/mc_smoke_stderr.log" \
  || { echo "no heartbeat emitted:"; cat "$WORK/mc_smoke_stderr.log"; exit 1; }
grep -q '"final":true' "$WORK/mc_smoke_stderr.log" \
  || { echo "no final heartbeat emitted:"; cat "$WORK/mc_smoke_stderr.log"; exit 1; }

echo "== tier1: disabled-observability overhead gate (<2%) =="
cargo run --release -p nshot-bench --bin obs_overhead

echo "== tier1: 2-circuit smoke (synth + validate) =="
cargo run --release --bin assassin -- bench chu133
cargo run --release --bin assassin -- bench full

echo "== tier1: server smoke (ready-line discovery, synth + metrics + shutdown) =="
# The server prints `ready ADDR` on stdout once it is accepting (the ready
# line is written after the bind and flushed atomically).
SERVER_LOG="$(mktemp)"
cargo run --release -p nshot-server --bin nshot-serve > "$SERVER_LOG" &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(awk '/^ready /{print $2; exit}' "$SERVER_LOG")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never printed ready"; kill "$SERVER_PID"; exit 1; }

echo "== tier1: metrics op smoke =="
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}"
printf '{"id":"m","op":"metrics"}\n' >&3
IFS= read -r METRICS_LINE <&3
exec 3<&- 3>&-
case "$METRICS_LINE" in
  *nshot_requests_total*)
    case "$METRICS_LINE" in
      *nshot_stage_duration_us*) echo "metrics op: OK" ;;
      *) echo "metrics op missing stage histograms: $METRICS_LINE"; kill "$SERVER_PID"; exit 1 ;;
    esac ;;
  *) echo "metrics op missing server counters: $METRICS_LINE"; kill "$SERVER_PID"; exit 1 ;;
esac
# The wire decode-error counter registers at bind, so every scrape carries
# it — the series the fleet alerts on when a peer ships broken frames.
case "$METRICS_LINE" in
  *nshot_wire_decode_errors_total*) : ;;
  *) echo "metrics op missing wire decode-error counter: $METRICS_LINE"; kill "$SERVER_PID"; exit 1 ;;
esac

# loadgen replays chu133 and full on two connections and checks every
# response byte for byte against direct synthesis; any mismatch fails it.
cargo run --release -p nshot-bench --bin loadgen -- --addr "$ADDR" --no-shutdown
# Same workload again with the binary framing negotiated per connection:
# loadgen's per-response byte-identity checks prove transport equivalence
# end to end. This second run issues the shutdown.
cargo run --release -p nshot-bench --bin loadgen -- --addr "$ADDR" --format binary
wait "$SERVER_PID"
rm -f "$SERVER_LOG"

echo "== tier1: shard smoke (front + 2 spawned backends, both client framings, byte-identity, merged metrics, drain) =="
# The front speaks NDJSON to its backends whatever its clients negotiate.
SHARD_LOG="$(mktemp)"
./target/release/nshot-shard --spawn 2 > "$SHARD_LOG" &
SHARD_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(awk '/^ready /{print $2; exit}' "$SHARD_LOG")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "shard front never printed ready"; kill "$SHARD_PID"; exit 1; }
# Every response proxied through the front must be byte-identical to
# direct synthesis — loadgen checks that per request.
cargo run --release -p nshot-bench --bin loadgen -- --addr "$ADDR" --no-shutdown
# Binary clients: the front re-frames each backend's NDJSON answer, and
# loadgen checks every re-framed response against direct synthesis.
cargo run --release -p nshot-bench --bin loadgen -- --addr "$ADDR" --format binary --no-shutdown
# The metrics op fans out and merges both backends' series under their
# shard labels; the shutdown op fans the graceful drain out to both.
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}"
printf '{"id":"m","op":"metrics"}\n' >&3
IFS= read -r SHARD_METRICS <&3
printf '{"id":"ctl","op":"shutdown"}\n' >&3
IFS= read -r SHARD_ACK <&3
exec 3<&- 3>&-
echo "$SHARD_METRICS" | grep -q 'shard=\\"0\\"' \
  || { echo "merged metrics missing shard 0 series: $SHARD_METRICS"; exit 1; }
echo "$SHARD_METRICS" | grep -q 'shard=\\"1\\"' \
  || { echo "merged metrics missing shard 1 series: $SHARD_METRICS"; exit 1; }
echo "$SHARD_ACK" | grep -q '"shards_drained":2' \
  || { echo "shutdown fan-out did not drain both shards: $SHARD_ACK"; exit 1; }
wait "$SHARD_PID"
rm -f "$SHARD_LOG"

echo "== tier1: store smoke (batch compile, corrupt tail, recover, warm start) =="
STORE_DIR="$(mktemp -d)"
cargo run --release -p nshot-server --bin nshot-batch -- \
  --store "$STORE_DIR" --circuits chu133,full,hazard --fsync always
# Tear the newest segment's tail: a crash mid-append. Recovery must drop
# exactly the torn record and the incremental rerun recompile only it.
SEG="$(ls "$STORE_DIR"/seg-*.log | sort | tail -1)"
truncate -s -7 "$SEG"
BATCH_OUT="$(cargo run --release -p nshot-server --bin nshot-batch -- \
  --store "$STORE_DIR" --circuits chu133,full,hazard --fsync always 2>&1)"
echo "$BATCH_OUT" | grep -q "dropped 1," \
  || { echo "store recovery did not drop the torn record:"; echo "$BATCH_OUT"; exit 1; }
echo "$BATCH_OUT" | grep -q "compiled 1, cached 2, failed 0" \
  || { echo "incremental recompile mismatch:"; echo "$BATCH_OUT"; exit 1; }
# Warm start off the batch-written store: loadgen's byte-identity checks
# prove a warm server answers exactly what cold synthesis would, and it
# exits non-zero (printing the hit count) unless every warm answer came
# from the store.
cargo run --release -p nshot-bench --bin loadgen -- --store "$STORE_DIR" \
  || { echo "warm-start smoke failed (byte identity or hit rate below 1.0)"; exit 1; }
rm -rf "$STORE_DIR"

echo "tier1: OK"
