#!/bin/sh
# drill_serve.sh — the simulation-service drill.
#
# Boots the omend daemon with 2 self-spawned workers per job and drives
# it over HTTP through the failure modes the service is sold on:
#
#   1. A job survives a SIGKILLed worker mid-run and its result is
#      byte-identical to the serial engine with the exact same merged
#      flop count.
#   2. Re-submitting a completed spec is a journal replay: the job comes
#      back "replayed" with every task restored and the exact journaled
#      flop total — zero new solves.
#   3. SIGTERM mid-job drains gracefully (exit 0, job lands "drained"),
#      and re-submitting the spec to a restarted daemon over the same
#      data directory completes the remainder: byte-identical
#      observables, exact flops, and a journal holding exactly one
#      record per task at epoch >= 2 (proof of the resume).
#
# Usage: scripts/drill_serve.sh [omend] [omen] [journalcheck]
set -eu

OMEND=${1:-./bin/omend}
OMEN=${2:-./bin/omen}
JOURNALCHECK=${3:-./bin/journalcheck}
WORKDIR=$(mktemp -d)
DATA="$WORKDIR/data"
DAEMON=""
cleanup() {
	[ -n "$DAEMON" ] && kill "$DAEMON" 2>/dev/null || true
	rm -rf "$WORKDIR"
}
trap cleanup EXIT

PORT=$((20000 + $$ % 20000))
BASE="http://127.0.0.1:$PORT"

# Two distinct sweeps (different grids, so different job IDs). The lease
# timeout keeps re-dispatch after the worker kill fast; exec knobs are
# not part of the content hash, so the serial references below (default
# exec) are the same jobs.
SPEC1='{"device":{"name":"agnr7","cellsX":40},"grid":{"eMin":-2.5,"eMax":2.5,"nE":12000,"nK":1},"exec":{"leaseTimeout":"2s"}}'
SPEC2='{"device":{"name":"agnr7","cellsX":40},"grid":{"eMin":-2.5,"eMax":2.4,"nE":8000,"nK":1},"exec":{"leaseTimeout":"2s"}}'
NE1=12000
NE2=8000

echo "drill-serve: serial reference runs"
"$OMEN" -device agnr7 -cellsx 40 -ne "$NE1" -emin -2.5 -emax 2.5 > "$WORKDIR/serial1.txt"
"$OMEN" -device agnr7 -cellsx 40 -ne "$NE2" -emin -2.5 -emax 2.4 > "$WORKDIR/serial2.txt"

start_daemon() {
	"$OMEND" -addr "127.0.0.1:$PORT" -data "$DATA" -default-workers 2 \
		2>> "$WORKDIR/omend.err" &
	DAEMON=$!
	for _ in $(seq 1 50); do
		curl -sf "$BASE/healthz" > /dev/null 2>&1 && return 0
		sleep 0.2
	done
	echo "drill-serve: FAIL — daemon never became healthy" >&2
	cat "$WORKDIR/omend.err" >&2
	exit 1
}

# submit SPEC -> job id on stdout
submit() {
	curl -sf -X POST "$BASE/v1/jobs" -d "$1" \
		| sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p'
}

# field ID NAME -> raw value of "NAME" in the job's status JSON
field() {
	curl -sf "$BASE/v1/jobs/$1" | sed -n "s/^  \"$2\": \(.*\)/\1/p" | sed 's/,$//'
}

# wait_state ID STATE [tries]
wait_state() {
	for _ in $(seq 1 "${3:-600}"); do
		ST=$(field "$1" state)
		case "$ST" in
		"\"$2\"") return 0 ;;
		'"failed"' | '"canceled"')
			echo "drill-serve: FAIL — job $1 landed $ST waiting for $2" >&2
			curl -s "$BASE/v1/jobs/$1" >&2
			exit 1
			;;
		esac
		sleep 0.2
	done
	echo "drill-serve: FAIL — job $1 stuck (last state $ST, wanted $2)" >&2
	exit 1
}

# check_result ID SERIAL_FILE LABEL — byte-identical observables + exact flops
check_result() {
	curl -sf "$BASE/v1/jobs/$1/result" > "$WORKDIR/$3.txt"
	grep -v '^#' "$WORKDIR/$3.txt" > "$WORKDIR/$3_obs.txt"
	grep -v '^#' "$2" > "$WORKDIR/$3_ref.txt"
	if ! diff "$WORKDIR/$3_ref.txt" "$WORKDIR/$3_obs.txt" > /dev/null; then
		echo "drill-serve: FAIL — $3 observables differ from serial" >&2
		diff "$WORKDIR/$3_ref.txt" "$WORKDIR/$3_obs.txt" | head -20 >&2
		exit 1
	fi
	REF_FLOPS=$(grep '^# flops' "$2")
	GOT_FLOPS=$(grep '^# flops' "$WORKDIR/$3.txt")
	if [ "$REF_FLOPS" != "$GOT_FLOPS" ]; then
		echo "drill-serve: FAIL — $3 flops '$GOT_FLOPS' != serial '$REF_FLOPS'" >&2
		exit 1
	fi
}

echo "drill-serve: starting daemon on $BASE"
start_daemon

# --- Leg 1: worker-kill job -------------------------------------------
ID1=$(submit "$SPEC1")
[ -n "$ID1" ] || { echo "drill-serve: FAIL — submit returned no job id" >&2; exit 1; }
echo "drill-serve: job 1 is $ID1 — streaming, then SIGKILLing a worker"
curl -sN --max-time 600 "$BASE/v1/jobs/$ID1/stream" > "$WORKDIR/stream1.txt" &
STREAM=$!

wait_state "$ID1" running 100
sleep 0.3
VICTIM=$(pgrep -f "omend -worker" | head -1 || true)
if [ -z "$VICTIM" ]; then
	echo "drill-serve: FAIL — no spawned worker process found to kill" >&2
	exit 1
fi
echo "drill-serve: SIGKILL worker pid $VICTIM"
kill -9 "$VICTIM" 2>/dev/null || true

wait_state "$ID1" done
check_result "$ID1" "$WORKDIR/serial1.txt" job1
if ! grep -q '^# cluster: 2 workers' "$WORKDIR/job1.txt"; then
	echo "drill-serve: FAIL — expected 2 workers in the cluster summary:" >&2
	grep '^# cluster' "$WORKDIR/job1.txt" >&2 || true
	exit 1
fi
grep '^# cluster' "$WORKDIR/job1.txt"

wait "$STREAM" || { echo "drill-serve: FAIL — stream curl exited non-zero" >&2; exit 1; }
NPOINTS=$(grep -c '^event: point' "$WORKDIR/stream1.txt" || true)
if [ "$NPOINTS" -ne "$NE1" ] || ! grep -q '^event: done' "$WORKDIR/stream1.txt"; then
	echo "drill-serve: FAIL — stream carried $NPOINTS/$NE1 points (done event: $(grep -c '^event: done' "$WORKDIR/stream1.txt"))" >&2
	exit 1
fi
echo "drill-serve: PASS — worker-kill job byte-identical, flops exact, $NPOINTS points streamed"

# --- Leg 2: replay of a completed spec --------------------------------
ID1B=$(submit "$SPEC1")
if [ "$ID1B" != "$ID1" ]; then
	echo "drill-serve: FAIL — identical spec got a different job id ($ID1B vs $ID1)" >&2
	exit 1
fi
echo "drill-serve: restarting daemon to force a replay from the journal"
kill -TERM "$DAEMON" && wait "$DAEMON" || true
start_daemon
ID1C=$(submit "$SPEC1")
wait_state "$ID1C" done
if [ "$(field "$ID1C" replayed)" != "true" ]; then
	echo "drill-serve: FAIL — completed spec was not replayed from its journal:" >&2
	curl -s "$BASE/v1/jobs/$ID1C" >&2
	exit 1
fi
check_result "$ID1C" "$WORKDIR/serial1.txt" replay1
echo "drill-serve: PASS — re-submitted spec replayed from journal (zero new solves), result and flops exact"

# --- Leg 3: SIGTERM drain mid-job, resume on restart ------------------
ID2=$(submit "$SPEC2")
echo "drill-serve: job 2 is $ID2 — SIGTERM mid-run"
wait_state "$ID2" running 100
# Let some results commit so the resume has something to restore.
for _ in $(seq 1 200); do
	DONE=$(field "$ID2" done)
	[ "${DONE:-0}" -ge 50 ] && break
	sleep 0.2
done
kill -TERM "$DAEMON"
if ! wait "$DAEMON"; then
	echo "drill-serve: FAIL — daemon exited non-zero on SIGTERM" >&2
	cat "$WORKDIR/omend.err" >&2
	exit 1
fi
DAEMON=""

echo "drill-serve: daemon restarted — re-submitting the drained spec"
start_daemon
ID2B=$(submit "$SPEC2")
[ "$ID2B" = "$ID2" ] || { echo "drill-serve: FAIL — drained spec changed id" >&2; exit 1; }
wait_state "$ID2B" done
RESTORED=$(field "$ID2B" restored)
if [ "${RESTORED:-0}" -lt 1 ]; then
	echo "drill-serve: FAIL — resume restored nothing (journal lost?):" >&2
	curl -s "$BASE/v1/jobs/$ID2B" >&2
	exit 1
fi
check_result "$ID2B" "$WORKDIR/serial2.txt" job2
"$JOURNALCHECK" -journal "$DATA/$ID2.journal" -total "$NE2" -min-epoch 2
echo "drill-serve: PASS — drained job resumed ($RESTORED tasks restored), result and flops exact"

kill -TERM "$DAEMON" && wait "$DAEMON" || true
DAEMON=""
echo "drill-serve: PASS — all legs green"
