#!/bin/sh
# unreached.sh — the functions of repro/internal that no product binary links.
#
# Builds every program under cmd/ and examples/ and the bench/ ledger (its
# default and its layertrace build) with inlining off, so every function a
# binary calls survives as a symbol, and reads the defined repro/internal
# functions from `go tool nm`. It then prints each non-test `func`
# declaration of internal/ that is compiled into the default build, written
# in the linker's form (pkg.F, pkg.T.M, pkg.(*T).M), that none of those
# binaries links, with its file:line. What it prints is reached by tests
# only — or by nothing.
#
# Report only: the exit status is 0 whatever it finds. A method reached
# only through an interface the binaries never call can still be linked,
# so an entry missing from the report is not proof of use. It sees
# functions, not call-site-selected branches: a branch that no caller
# selects (an option value every call site leaves unused) stays invisible
# while its function is linked. `make unreached-check` holds the symbol
# column to scripts/unreached.txt.
#
# Usage: scripts/unreached.sh   (from anywhere inside the repository)
set -eu

GO=${GO:-go}
export LC_ALL=C
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$ROOT"

for pkg in $($GO list ./cmd/... ./examples/...); do
	$GO build -gcflags=all=-l -o "$WORKDIR/bin.$(basename "$pkg")" "$pkg"
done
$GO -C bench build -gcflags=all=-l -o "$WORKDIR/bin.bench" .
$GO -C bench build -gcflags=all=-l -tags layertrace -o "$WORKDIR/bin.bench-traced" .

# Defined functions only (T, t); type parameters and the .abi0 suffix of
# assembly bodies dropped, so that a symbol matches its declaration.
for bin in "$WORKDIR"/bin.*; do
	$GO tool nm "$bin"
done | awk '($2 == "T" || $2 == "t") && index($3, "repro/internal/") == 1 { print $3 }' |
	sed 's/\[[^]]*\]//g; s/\.abi0$//' | sort -u >"$WORKDIR/linked"

# Every top-level func of the default build's non-test files, keyed by its
# linker name; init functions are the runtime's to call.
$GO list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
	while read -r pkg file; do
		awk -v pkg="$pkg" -v file="${file#"$ROOT"/}" '
			/^func / {
				s = substr($0, 6)
				recv = ""
				if (substr(s, 1, 1) == "(") {
					close_ = index(s, ")")
					n = split(substr(s, 2, close_ - 2), f, " ")
					t = f[n]
					sub(/\[.*/, "", t)
					recv = (substr(t, 1, 1) == "*") ? "(" t ")." : t "."
					s = substr(s, close_ + 2)
				}
				match(s, /^[A-Za-z0-9_]+/)
				name = substr(s, 1, RLENGTH)
				if (recv == "" && name == "init") next
				print pkg "." recv name "\t" file ":" FNR
			}' "$file"
	done | sort -t "$(printf '\t')" -k1,1 >"$WORKDIR/declared"

join -t "$(printf '\t')" -v 1 "$WORKDIR/declared" "$WORKDIR/linked" |
	awk -F '\t' '{ printf "%-60s %s\n", $2, $1 }' | sort
