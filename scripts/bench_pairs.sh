#!/bin/sh
# bench_pairs.sh — bench/README.md's protocol for comparing a change with
# its parent on one workload.
#
# Runs N (default 10) pairs of end-to-end benchmark runs, one of each
# checkout per pair with the same seed, alternating which side goes first
# so neither always meets the host first. Each side appends its runs to a
# ledger of its own (-out); the change's runner then compares the two
# (-compare): medians, spreads, bounds and the same-seed pairs each side
# won. Neither checkout is modified; the runs build from their sources.
#
# Usage: scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [N]
#
# PARENT_DIR and CHANGE_DIR are repository roots (a `git clone` of the
# parent commit, and this tree). Environment: SEED0 (first seed, default
# 101; pair i runs seed SEED0+i), RUN_SECONDS (timed window of each run,
# default the runner's own), LEDGER_DIR (where parent.json and change.json
# go, default a fresh temporary directory, printed).
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [N]" >&2
	exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
WORKLOAD=$3
N=${4:-10}
SEED0=${SEED0:-101}
LEDGER_DIR=${LEDGER_DIR:-$(mktemp -d)}
mkdir -p "$LEDGER_DIR"
echo "bench_pairs: $N pairs of $WORKLOAD, ledgers in $LEDGER_DIR" >&2

# run SIDE DIR SEED: one end-to-end run of DIR's runner into SIDE's ledger.
run() {
	go -C "$2/bench" run repro/bench -workload "$WORKLOAD" -seed "$3" \
		${RUN_SECONDS:+-seconds "$RUN_SECONDS"} -out "$LEDGER_DIR/$1.json" >/dev/null
	echo "bench_pairs: seed $3 $1 done" >&2
}

i=0
while [ "$i" -lt "$N" ]; do
	seed=$((SEED0 + i))
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$PARENT" "$seed"
		run change "$CHANGE" "$seed"
	else
		run change "$CHANGE" "$seed"
		run parent "$PARENT" "$seed"
	fi
	i=$((i + 1))
done
go -C "$CHANGE/bench" run repro/bench -compare "$LEDGER_DIR/parent.json" "$LEDGER_DIR/change.json"
