#!/bin/sh
# drill_dist.sh — the distributed kill drill.
#
# Runs the same transmission sweep twice under 10% deterministic fault
# injection: once serial, once distributed (a coordinator that
# self-spawns 3 workers plus one externally launched victim worker that
# is SIGKILLed mid-run). The drill passes only if the distributed run,
# despite losing a worker, produces byte-identical observables AND the
# exact same merged flop count as the serial run.
#
# The distributed run journals, and a replay leg reruns its coordinator
# with -resume -workers 2 over the finished journal: that must print the
# same rows and flop count from disk without opening a listener, starting
# a worker or writing a byte to the journal.
#
# Two negative drills ride along, exercising the run-spec content hash:
# a worker launched with a perturbed spec (same grid dimensions, so only
# the hash can catch it) must be rejected at the handshake, and a
# -resume against a journal written by a different spec must exit
# non-zero.
#
# Usage: scripts/drill_dist.sh [path-to-omen-binary]
set -eu

OMEN=${1:-./bin/omen}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

# A sweep big enough (~4s serial) that the kill lands mid-run.
ARGS="-device agnr7 -cellsx 40 -ne 3000 -emin -2.5 -emax 2.5"
FAULTS="-fault-rate 0.1 -max-retries 3 -fault-seed 7"

echo "drill-dist: serial reference run"
# shellcheck disable=SC2086
"$OMEN" $ARGS $FAULTS > "$WORKDIR/serial.txt"

PORT=$((20000 + $$ % 20000))
echo "drill-dist: distributed run on 127.0.0.1:$PORT (3 spawned workers + 1 victim)"
# shellcheck disable=SC2086
"$OMEN" $ARGS $FAULTS -serve "127.0.0.1:$PORT" -workers 3 -lease-timeout 2s \
	-checkpoint "$WORKDIR/dist.journal" \
	> "$WORKDIR/dist.txt" 2> "$WORKDIR/dist.err" &
COORD=$!

# The victim dials the same fixed port; DialRetry tolerates launch order.
# shellcheck disable=SC2086
"$OMEN" $ARGS $FAULTS -worker "127.0.0.1:$PORT" -workers 1 \
	2> "$WORKDIR/victim.err" &
VICTIM=$!

sleep 0.8
echo "drill-dist: SIGKILL worker pid $VICTIM"
kill -9 "$VICTIM" 2>/dev/null || true

# Negative drill, while the coordinator is still up: a worker whose spec
# was perturbed by one flag (-emin -2.4 instead of -2.5 — same task-grid
# dimensions, so the pre-spec dims check cannot catch it) must be turned
# away at the handshake with a spec-mismatch error.
echo "drill-dist: launching spec-mismatched worker (must be rejected)"
# shellcheck disable=SC2086
if "$OMEN" $ARGS $FAULTS -emin -2.4 -worker "127.0.0.1:$PORT" -workers 1 \
	> /dev/null 2> "$WORKDIR/mismatch.err"; then
	echo "drill-dist: FAIL — spec-mismatched worker was accepted" >&2
	exit 1
fi
if ! grep -qi 'spec' "$WORKDIR/mismatch.err"; then
	echo "drill-dist: FAIL — mismatched worker died without naming the spec mismatch:" >&2
	cat "$WORKDIR/mismatch.err" >&2
	exit 1
fi

if ! wait "$COORD"; then
	echo "drill-dist: FAIL — coordinator exited non-zero" >&2
	cat "$WORKDIR/dist.err" >&2
	exit 1
fi
wait "$VICTIM" 2>/dev/null || true

grep -v '^#' "$WORKDIR/serial.txt" > "$WORKDIR/serial_obs.txt"
grep -v '^#' "$WORKDIR/dist.txt" > "$WORKDIR/dist_obs.txt"
if ! diff "$WORKDIR/serial_obs.txt" "$WORKDIR/dist_obs.txt" > /dev/null; then
	echo "drill-dist: FAIL — observables differ between serial and distributed runs" >&2
	diff "$WORKDIR/serial_obs.txt" "$WORKDIR/dist_obs.txt" | head -20 >&2
	exit 1
fi

SERIAL_FLOPS=$(grep '^# flops' "$WORKDIR/serial.txt")
DIST_FLOPS=$(grep '^# flops' "$WORKDIR/dist.txt")
if [ "$SERIAL_FLOPS" != "$DIST_FLOPS" ]; then
	echo "drill-dist: FAIL — flop counts differ: serial '$SERIAL_FLOPS' vs distributed '$DIST_FLOPS'" >&2
	exit 1
fi

grep '^# cluster' "$WORKDIR/dist.txt"
echo "drill-dist: PASS — observables byte-identical, $SERIAL_FLOPS exact across the kill"

# Replay leg: the journal of the run above holds every task, so rerunning
# the coordinator with -resume has nothing left to compute. It must serve
# the sweep from disk — same rows, same flop count, all 3000 tasks
# restored — and leave no trace of a fleet: no worker spawned (they would
# die with "lost coordinator" against a coordinator that is already done)
# and not one byte appended to the journal (no epoch bump).
echo "drill-dist: replay leg (-resume -workers 2 over the finished journal)"
JBYTES=$(wc -c < "$WORKDIR/dist.journal")
# shellcheck disable=SC2086
if ! "$OMEN" $ARGS $FAULTS -serve "127.0.0.1:$PORT" -workers 2 \
	-checkpoint "$WORKDIR/dist.journal" -resume \
	> "$WORKDIR/replay.txt" 2> "$WORKDIR/replay.err"; then
	echo "drill-dist: FAIL — replay of the finished journal exited non-zero" >&2
	cat "$WORKDIR/replay.err" >&2
	exit 1
fi
grep -v '^#' "$WORKDIR/replay.txt" > "$WORKDIR/replay_obs.txt"
if ! diff "$WORKDIR/serial_obs.txt" "$WORKDIR/replay_obs.txt" > /dev/null; then
	echo "drill-dist: FAIL — replayed observables differ from the serial run" >&2
	diff "$WORKDIR/serial_obs.txt" "$WORKDIR/replay_obs.txt" | head -20 >&2
	exit 1
fi
REPLAY_FLOPS=$(grep '^# flops' "$WORKDIR/replay.txt")
if [ "$SERIAL_FLOPS" != "$REPLAY_FLOPS" ]; then
	echo "drill-dist: FAIL — replayed flop count differs: '$REPLAY_FLOPS' vs '$SERIAL_FLOPS'" >&2
	exit 1
fi
if ! grep -q '^# resumed: 3000/3000' "$WORKDIR/replay.txt"; then
	echo "drill-dist: FAIL — replay did not restore all 3000 tasks:" >&2
	grep '^#' "$WORKDIR/replay.txt" >&2 || true
	exit 1
fi
if grep -q 'lost coordinator\|worker .* exited' "$WORKDIR/replay.err"; then
	echo "drill-dist: FAIL — replay started workers that had nothing to do:" >&2
	cat "$WORKDIR/replay.err" >&2
	exit 1
fi
if [ "$(wc -c < "$WORKDIR/dist.journal")" != "$JBYTES" ]; then
	echo "drill-dist: FAIL — replay wrote to the finished journal ($JBYTES bytes before, $(wc -c < "$WORKDIR/dist.journal") after)" >&2
	exit 1
fi
echo "drill-dist: PASS — finished journal replayed: 3000/3000 restored, no worker started, journal untouched at $JBYTES bytes"

# Sharded work-stealing leg: the same sweep on 2 coordinator shards with
# the JSON wire and one worker. The worker is homed on shard 0, drains it,
# and must then steal the entirety of shard 1's half of the grid — the
# drill proves stealing is load-bearing, not decorative. Sharding and the
# wire format are pure scheduling/transport knobs: observables must stay
# byte-identical to the serial reference with the exact flop total
# (DESIGN.md §16).
SPORT=$((PORT + 1))
echo "drill-dist: sharded run on 127.0.0.1:$SPORT (-workers 1 -shards 2 -wire json)"
# shellcheck disable=SC2086
"$OMEN" $ARGS $FAULTS -serve "127.0.0.1:$SPORT" -workers 1 \
	-shards 2 -wire json \
	> "$WORKDIR/shard.txt" 2> "$WORKDIR/shard.err"
grep -v '^#' "$WORKDIR/shard.txt" > "$WORKDIR/shard_obs.txt"
if ! diff "$WORKDIR/serial_obs.txt" "$WORKDIR/shard_obs.txt" > /dev/null; then
	echo "drill-dist: FAIL — sharded observables differ from the serial run" >&2
	diff "$WORKDIR/serial_obs.txt" "$WORKDIR/shard_obs.txt" | head -20 >&2
	exit 1
fi
SHARD_FLOPS=$(grep '^# flops' "$WORKDIR/shard.txt")
if [ "$SERIAL_FLOPS" != "$SHARD_FLOPS" ]; then
	echo "drill-dist: FAIL — sharded flop count differs: '$SHARD_FLOPS' vs '$SERIAL_FLOPS'" >&2
	exit 1
fi
STEALS=$(sed -n 's|^# shards: 2, steals: \([0-9][0-9]*\)$|\1|p' "$WORKDIR/shard.txt")
if [ -z "$STEALS" ] || [ "$STEALS" -lt 1 ]; then
	echo "drill-dist: FAIL — sharded run reported no steals (want >= 1):" >&2
	grep '^#' "$WORKDIR/shard.txt" >&2 || true
	exit 1
fi
echo "drill-dist: PASS — 2-shard run byte-identical with exact flops, $STEALS batches stolen across shards"

# Negative drill: resuming a checkpoint journal with a different spec
# must fail loudly; resuming with the same spec must succeed.
SMALL="-device agnr7 -cellsx 6 -ne 64 -emin -1 -emax 1"
JOURNAL="$WORKDIR/resume.journal"
echo "drill-dist: foreign-spec resume drill"
# shellcheck disable=SC2086
"$OMEN" $SMALL -checkpoint "$JOURNAL" > /dev/null
# shellcheck disable=SC2086
if "$OMEN" $SMALL -emin -1.1 -checkpoint "$JOURNAL" -resume \
	> /dev/null 2> "$WORKDIR/resume.err"; then
	echo "drill-dist: FAIL — resume with a foreign spec was accepted" >&2
	exit 1
fi
if ! grep -q 'different run spec' "$WORKDIR/resume.err"; then
	echo "drill-dist: FAIL — foreign-spec resume died for the wrong reason:" >&2
	cat "$WORKDIR/resume.err" >&2
	exit 1
fi
# shellcheck disable=SC2086
"$OMEN" $SMALL -checkpoint "$JOURNAL" -resume > "$WORKDIR/resume.txt"
if ! grep -q '^# resumed: 64/64' "$WORKDIR/resume.txt"; then
	echo "drill-dist: FAIL — same-spec resume did not restore all tasks" >&2
	grep '^#' "$WORKDIR/resume.txt" >&2
	exit 1
fi
echo "drill-dist: PASS — mismatched worker rejected at handshake, foreign-spec resume refused, same-spec resume restored 64/64"
