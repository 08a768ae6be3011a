#!/bin/sh
# designrefs.sh — fail when a document cites a test or a make target that
# does not exist.
#
# Reads DESIGN.md, README.md, EXPERIMENTS.md and the verify skill
# (.claude/skills/verify/SKILL.md), and checks two kinds of citation:
#
#   - a Test, Benchmark or Fuzz name anywhere in the text must be a func
#     declared in some *_test.go of the repository (bench/ included); a
#     name ending in `*` (BenchmarkA1_Gemm*) must prefix at least one;
#   - inside a code span or fenced block, every word after `make` up to
#     the first one that is not a bare target name (a VAR=value, a flag,
#     the end of the span) must be a target of the root Makefile.
#
# Prints one line per stale citation, file first, and exits 1 if there is
# any. A renamed or deleted test, benchmark or target therefore fails
# `make check` until the documents stop citing it.
#
# Usage: scripts/designrefs.sh [FILE...]   (from anywhere inside the
# repository; the default is the four documents above)
set -eu

export LC_ALL=C
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

if [ $# -eq 0 ]; then
	set -- DESIGN.md README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md
fi

find . -name '*_test.go' -not -path './.git/*' -exec cat {} + |
	sed -n 's/^func \(\(Test\|Benchmark\|Fuzz\)[A-Za-z0-9_]*\)(.*/\1/p' |
	sort -u > "$WORKDIR/tests"
sed -n 's/^\([A-Za-z0-9][A-Za-z0-9_.-]*\):\([^=].*\)\{0,1\}$/\1/p' Makefile |
	sort -u > "$WORKDIR/targets"
if [ ! -s "$WORKDIR/tests" ] || [ ! -s "$WORKDIR/targets" ]; then
	echo "designrefs: found no tests or no make targets to check against" >&2
	exit 2
fi

stale=0
for doc in "$@"; do
	if [ ! -f "$doc" ]; then
		echo "designrefs: $doc: no such file" >&2
		exit 2
	fi
	grep -oE '\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?' "$doc" | sort -u |
		while read -r name; do
			case $name in
			*\*) grep -q "^${name%\*}" "$WORKDIR/tests" ;;
			*) grep -qx "$name" "$WORKDIR/tests" ;;
			esac || echo "$doc: $name: no such test, benchmark or fuzz target"
		done >> "$WORKDIR/stale"
	# The text as one line, cut at backticks: every odd field is inside a
	# code span or a fenced block.
	tr '\n' ' ' < "$doc" | awk -F'`' '{
		for (i = 2; i <= NF; i += 2) {
			n = split($i, w, /[ \t]+/)
			for (j = 1; j < n; j++) {
				if (w[j] != "make") continue
				for (k = j + 1; k <= n && w[k] ~ /^[a-z][a-z0-9-]*$/; k++) print w[k]
			}
		}
	}' | sort -u | while read -r target; do
		grep -qx "$target" "$WORKDIR/targets" || echo "$doc: make $target: no such make target"
	done >> "$WORKDIR/stale"
done

if [ -s "$WORKDIR/stale" ]; then
	cat "$WORKDIR/stale"
	stale=1
fi
exit $stale
