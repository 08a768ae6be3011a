#!/bin/sh
# drill_failover.sh — the coordinator-failover drill.
#
# Runs the same transmission sweep twice: once serial, once distributed
# with the coordinator SIGKILLed mid-sweep and restarted with -resume on
# the same port (and a downgraded JSON wire, proving mixed-format
# rejoins). Three externally launched workers carry a -rejoin-window
# and must survive the crash: detect the hangup, re-dial the address,
# re-handshake under the journal-pinned run ID, and finish the sweep
# under the restarted coordinator's bumped epoch.
#
# The drill passes only if, despite the coordinator dying with leases in
# flight:
#   - the resumed run's observables are byte-identical to the serial run,
#   - the merged flop total is exactly the serial count,
#   - the journal holds exactly one record per task (no holes from the
#     crash, no duplicates from stale epoch-1 results) at epoch >= 2,
#   - every worker exits 0 and its stderr shows the rejoin happened,
#   - the restart restored a strictly partial journal (the kill really
#     landed mid-sweep).
#
# Usage: scripts/drill_failover.sh [path-to-omen] [path-to-journalcheck]
set -eu

OMEN=${1:-./bin/omen}
JCHECK=${2:-./bin/journalcheck}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

# A sweep big enough (~4s serial) that the kill lands mid-run.
ARGS="-device agnr7 -cellsx 40 -ne 3000 -emin -2.5 -emax 2.5"
TOTAL=3000
JOURNAL="$WORKDIR/failover.journal"
PORT=$((22000 + $$ % 20000))

echo "drill-failover: serial reference run"
# shellcheck disable=SC2086
"$OMEN" $ARGS > "$WORKDIR/serial.txt"

echo "drill-failover: coordinator #1 on 127.0.0.1:$PORT (journal + 3 external rejoin-capable workers)"
# shellcheck disable=SC2086
"$OMEN" $ARGS -serve "127.0.0.1:$PORT" -workers 0 \
	-checkpoint "$JOURNAL" -lease-timeout 2s \
	> "$WORKDIR/coord1.txt" 2> "$WORKDIR/coord1.err" &
COORD1=$!

# Workers dial the fixed port (DialRetry tolerates launch order) and are
# width-1 pools so the merged flop accounting stays exact.
WPIDS=""
for i in 1 2 3; do
	# shellcheck disable=SC2086
	"$OMEN" $ARGS -worker "127.0.0.1:$PORT" -workers 1 -rejoin-window 45s \
		2> "$WORKDIR/worker$i.err" &
	WPIDS="$WPIDS $!"
done

# Kill once a tenth of the sweep is journaled: a fixed sleep lands after
# the end of the run on a box (or a fabric) fast enough.
for _ in $(seq 1 200); do
	[ -f "$JOURNAL" ] && [ "$(wc -l < "$JOURNAL")" -ge $((TOTAL / 10)) ] && break
	sleep 0.05
done
echo "drill-failover: SIGKILL coordinator pid $COORD1 mid-sweep"
kill -9 "$COORD1" 2>/dev/null || true
wait "$COORD1" 2>/dev/null || true

# The restart also flips the wire format: the workers negotiated the
# binary wire with coordinator #1, but #2 only offers JSON, so on rejoin
# every worker must renegotiate down to JSON frames mid-job. The wire is
# per-session and unhashed, so the spec hash pinned in the journal still
# matches — a mixed-format failover has to be bitwise invisible.
echo "drill-failover: restarting coordinator with -resume -wire json on the same port"
# shellcheck disable=SC2086
"$OMEN" $ARGS -serve "127.0.0.1:$PORT" -workers 0 \
	-checkpoint "$JOURNAL" -resume -wire json -lease-timeout 2s \
	> "$WORKDIR/coord2.txt" 2> "$WORKDIR/coord2.err"

for pid in $WPIDS; do
	if ! wait "$pid"; then
		echo "drill-failover: FAIL — a worker exited non-zero after the failover" >&2
		cat "$WORKDIR"/worker*.err >&2
		exit 1
	fi
done

if ! grep -q 'epoch 2' "$WORKDIR/coord2.err"; then
	echo "drill-failover: FAIL — restarted coordinator did not announce epoch 2:" >&2
	cat "$WORKDIR/coord2.err" >&2
	exit 1
fi
if ! grep -qi 'rejoin' "$WORKDIR/worker1.err" "$WORKDIR/worker2.err" "$WORKDIR/worker3.err"; then
	echo "drill-failover: FAIL — no worker logged a rejoin; did the kill land mid-sweep?" >&2
	cat "$WORKDIR"/worker*.err >&2
	exit 1
fi

# The restart must have found a strictly partial journal: some tasks
# committed by incarnation #1 (the fsync journal did its job), some left
# for incarnation #2 (the kill really interrupted the sweep).
RESUMED=$(sed -n 's|^# resumed: \([0-9]*\)/.*|\1|p' "$WORKDIR/coord2.txt")
if [ -z "$RESUMED" ] || [ "$RESUMED" -lt 1 ] || [ "$RESUMED" -ge "$TOTAL" ]; then
	echo "drill-failover: FAIL — expected a strictly partial resume, got '# resumed: ${RESUMED:-none}/$TOTAL'" >&2
	grep '^#' "$WORKDIR/coord2.txt" >&2 || true
	exit 1
fi

grep -v '^#' "$WORKDIR/serial.txt" > "$WORKDIR/serial_obs.txt"
grep -v '^#' "$WORKDIR/coord2.txt" > "$WORKDIR/coord2_obs.txt"
if ! diff "$WORKDIR/serial_obs.txt" "$WORKDIR/coord2_obs.txt" > /dev/null; then
	echo "drill-failover: FAIL — observables differ between serial and failed-over runs" >&2
	diff "$WORKDIR/serial_obs.txt" "$WORKDIR/coord2_obs.txt" | head -20 >&2
	exit 1
fi

SERIAL_FLOPS=$(grep '^# flops' "$WORKDIR/serial.txt")
DIST_FLOPS=$(grep '^# flops' "$WORKDIR/coord2.txt")
if [ "$SERIAL_FLOPS" != "$DIST_FLOPS" ]; then
	echo "drill-failover: FAIL — flop counts differ: serial '$SERIAL_FLOPS' vs failed-over '$DIST_FLOPS'" >&2
	exit 1
fi

# Exactly-once: one digest-valid record per task (the task count is the
# sweep shape of the spec in the journal's header), under a bumped epoch.
if ! "$JCHECK" -journal "$JOURNAL" -min-epoch 2; then
	echo "drill-failover: FAIL — journal audit failed" >&2
	exit 1
fi

grep '^# cluster' "$WORKDIR/coord2.txt"
echo "drill-failover: PASS — resumed $RESUMED/$TOTAL, observables byte-identical, $SERIAL_FLOPS exact across the coordinator kill"
