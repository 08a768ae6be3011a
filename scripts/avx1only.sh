#!/bin/sh
# avx1only.sh — fail when the amd64 kernels use an instruction past AVX1.
#
# The fused and lane kernels of internal/linalg run wherever cpuHasAVX
# admits the CPU: CPUID AVX and OS-enabled ymm state, nothing more. So
# veckernels_amd64.s may use base x86-64 and AVX1 only — no AVX2 integer
# op on a ymm register, no FMA, no AVX-512 — and every lane must compute
# the scalar Go tree, which a fused multiply-add would not. This script
# reads each instruction's mnemonic and fails on one outside the
# allowlist below: the set the kernels use, and the AVX1 neighbours a
# kernel may plausibly need. It also fails on VBROADCASTSD with a
# register source, which is AVX2: AVX1 broadcasts from memory only.
#
# Prints one line per offending instruction, file:line first, and exits 1
# if there is any.
#
# Usage: scripts/avx1only.sh [FILE...]   (from anywhere inside the
# repository; the default is internal/linalg/veckernels_amd64.s)
set -eu

export LC_ALL=C
ROOT=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -eq 0 ]; then
	set -- "$ROOT/internal/linalg/veckernels_amd64.s"
fi

ALLOW='
ADDQ ANDL ANDQ CMPL CMPQ CPUID DECQ IMULQ INCQ LEAQ MOVB MOVL MOVLQSX MOVQ
NEGQ NOTQ RET SHLQ SHRQ SUBQ TESTL TESTQ XGETBV XORQ
JE JGE JL JLE JMP JNE JNZ
VADDPD VADDSUBPD VANDNPD VANDPD VBLENDPD VBLENDVPD VBROADCASTSD VCMPPD
VCVTTPD2DQY VDIVPD VEXTRACTF128 VINSERTF128 VMAXPD VMINPD VMOVAPD VMOVDDUP
VMOVDQU VMOVHPD VMOVMSKPD VMOVSD VMOVUPD VMULPD VORPD VPERM2F128 VPERMILPD
VSHUFPD VSQRTPD VSUBPD VUNPCKHPD VUNPCKLPD VXORPD VZEROUPPER
'

status=0
for f in "$@"; do
	# An instruction line starts with white space; labels and the TEXT,
	# DATA and GLOBL directives start in column 0. Comments are dropped,
	# and `;` separates instructions on one line. A #define's body lines
	# (each continued by a trailing `\`) are checked as instructions, so
	# an invocation of the macro, which the assembler must see after its
	# #define, is only a name here and is skipped.
	bad=$(awk -v allow="$ALLOW" -v file="$f" '
		BEGIN { n = split(allow, a, /[ \t\n]+/); for (i = 1; i <= n; i++) if (a[i] != "") ok[a[i]] = 1 }
		/^#define[ \t]/ { name = $2; sub(/\(.*/, "", name); macro[name] = 1; next }
		{
			line = $0
			sub(/\/\/.*/, "", line)
			sub(/\\[ \t]*$/, "", line)
			if (line !~ /^[ \t]/) next
			m = split(line, ins, ";")
			for (i = 1; i <= m; i++) {
				s = ins[i]
				sub(/^[ \t]+/, "", s)
				if (s == "") continue
				split(s, w, /[ \t(]+/)
				if (w[1] in macro) continue
				split(s, w, /[ \t]+/)
				if (!(w[1] in ok)) printf "%s:%d: %s is not in the AVX1 allowlist\n", file, NR, w[1]
				else if (w[1] == "VBROADCASTSD" && s ~ /^VBROADCASTSD[ \t]+[XY][0-9]+/)
					printf "%s:%d: VBROADCASTSD from a register is AVX2\n", file, NR
			}
		}' "$f")
	if [ -n "$bad" ]; then
		echo "$bad"
		status=1
	fi
done
if [ "$status" -ne 0 ]; then
	echo "avx1only: the kernels must stay within base x86-64 and AVX1 (cpuHasAVX admits no more)" >&2
fi
exit "$status"
