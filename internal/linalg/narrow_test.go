package linalg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/perf"
)

// TestNarrowOperandsBitwise walks the widths the support-space solvers
// hand the fused kernels — every right-hand-side and product width 1…9,
// against factors and left operands of order 0, 1, 2, 6, 14 and 40 (GEMM
// tiles of 0, 1 and 2 rows, substitution sweeps at n = 1) — on operands
// carrying zero multipliers, signed zeros, infinities and NaNs: the
// zero-skip semantics live inside avxLuSolve and avxGemmTileNN, and from
// fusedMinWidth up it is they, not the scalar loops, that must reproduce
// the reference bits. A second pass runs GEMM tiles past gemmBlock: every
// last column block of width 1…9 and k-blocks ending one short of, at and
// one past a gemmBlock boundary, on 0 to 3 rows.
func TestNarrowOperandsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	for _, n := range []int{0, 1, 2, 6, 14, 40} {
		for w := 1; w <= 9; w++ {
			for it, class := range operandClasses {
				what := fmt.Sprintf("n=%d width=%d %s", n, w, class)
				// A packed factor is any square matrix with a nonzero
				// diagonal and in-range pivots; raw special operands put
				// zero, ±0 and non-finite multipliers in L and U.
				lu := specialMat(r, n, n, class)
				piv := make([]int, n)
				for i := range piv {
					lu.Data[i*n+i] += complex(float64(n), 0.5)
					piv[i] = i + r.Intn(n-i)
				}
				b := specialMat(r, n, w, class)
				wantX := b.Clone()
				refLuSolveInPlace(lu, piv, wantX, 0)
				// The product shapes of the block-Thomas and RGF kernels:
				// n×k·k×w with k narrow too, accumulated (beta = 1) and
				// overwritten (beta = 0), alpha = ±1.
				k := []int{w, n, 3}[it]
				a := specialMat(r, n, k, class)
				c := specialMat(r, k, w, class)
				seed := specialMat(r, n, w, class)
				alpha, beta := complex(float64(1-2*(it%2)), 0), complex(float64(it%2), 0)
				wantP := seed.Clone()
				refGemmInto(wantP, alpha, a, NoTrans, c, NoTrans, beta)
				// Orders 1…8 leave trailing blocks of every width below
				// vecMinLen to avxFactorColUpdate.
				sq := specialMat(r, w, w, class)
				wantLU, wantPiv := sq.Clone(), make([]int, w)
				wantErr := refFactorInPlace(wantLU, wantPiv)
				eachEngine(t, func(engine string) {
					gotLU, gotPiv := sq.Clone(), make([]int, w)
					if err := factorInPlace(gotLU, gotPiv); !errors.Is(err, wantErr) {
						t.Fatalf("%s factor %s: err %v, want %v", engine, what, err, wantErr)
					}
					if wantErr == nil {
						requireBits(t, engine+" factor "+what, gotLU.Data, wantLU.Data)
					}
					x := b.Clone()
					luSolveInPlace(lu, piv, x, 0)
					requireBits(t, engine+" solve "+what, x.Data, wantX.Data)
					got := seed.Clone()
					GemmInto(got, alpha, a, NoTrans, c, NoTrans, beta)
					requireBits(t, engine+" gemm "+what, got.Data, wantP.Data)
				})
			}
		}
	}
	for rows := 0; rows <= 3; rows++ {
		for w := 1; w <= 9; w++ {
			for _, k := range []int{gemmBlock - 1, gemmBlock, gemmBlock + 1, 2*gemmBlock + 1} {
				class := operandClasses[(rows+w+k)%len(operandClasses)]
				p := gemmBlock + w
				what := fmt.Sprintf("tiles %d×%d·%d×%d %s", rows, k, k, p, class)
				a, c, seed := specialMat(r, rows, k, class), specialMat(r, k, p, class), specialMat(r, rows, p, class)
				alpha := complex(r.NormFloat64(), r.NormFloat64())
				want := seed.Clone()
				refGemmInto(want, alpha, a, NoTrans, c, NoTrans, 1)
				eachEngine(t, func(engine string) {
					got := seed.Clone()
					GemmInto(got, alpha, a, NoTrans, c, NoTrans, 1)
					requireBits(t, engine+" gemm "+what, got.Data, want.Data)
				})
			}
		}
	}
}

// TestSolveFromRowBitwise holds SolveFromRow(b, r0), for every r0 in
// [0, n], to the reference substitution with its back sweep stopped at r0:
// rows r0…n−1 carry SolveInPlace's bits and rows below r0 the forward
// sweep's, on TestNarrowOperandsBitwise's orders, widths and operand
// classes, on both engines (the purego build has the fallback alone), and
// the solve counts perf.SolveFromRowFlops. Holding the rows below r0 too is
// what catches a floor off by one in either direction.
func TestSolveFromRowBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 2, 6, 14, 40} {
		for w := 1; w <= 9; w++ {
			for _, class := range operandClasses {
				lu := specialMat(r, n, n, class)
				piv := make([]int, n)
				for i := range piv {
					lu.Data[i*n+i] += complex(float64(n), 0.5)
					piv[i] = i + r.Intn(n-i)
				}
				f := LU{lu: lu, piv: piv}
				b := specialMat(r, n, w, class)
				for r0 := 0; r0 <= n; r0++ {
					what := fmt.Sprintf("n=%d width=%d floor=%d %s", n, w, r0, class)
					want := b.Clone()
					refLuSolveInPlace(lu, piv, want, r0)
					eachEngine(t, func(engine string) {
						full := b.Clone()
						f.SolveInPlace(full)
						got := b.Clone()
						perf.ResetFlops()
						f.SolveFromRow(got, r0)
						if c, want := perf.Flops(), perf.SolveFromRowFlops(n, r0, w); c != want {
							t.Fatalf("%s %s: counted %d flops, want %d", engine, what, c, want)
						}
						requireBits(t, engine+" floored solve "+what, got.Data, want.Data)
						requireBits(t, engine+" rows from the floor "+what, got.Data[r0*w:], full.Data[r0*w:])
					})
				}
			}
		}
	}
}

// benchEngines runs fn once per engine this build has, as sub-benchmarks.
func benchEngines(b *testing.B, fn func(b *testing.B)) {
	defer func(old bool) { hasAVX = old }(hasAVX)
	hasAVX = false
	b.Run("scalar", fn)
	if avxAvailable {
		hasAVX = true
		b.Run("fused", fn)
	}
}

// BenchmarkNarrowSolve regenerates the evidence behind fusedMinWidth for
// luSolveInPlace: factors of the layer orders the devices have, against the
// right-hand-side widths the support-space solvers produce. Its second half
// is the transmission sweep's solve, [b̃_i | U_i[:, C_i]] against a
// reduced layer, whole and from the floor min(R_i) the next layer reads:
// n = 15, widths 6–10, floor 5 on sinw (`wire_serial`); n = 7, widths 4–7,
// floor 4 on agnr7; n = 20, widths 11–15, floor 10 on utb.
func BenchmarkNarrowSolve(b *testing.B) {
	r := rand.New(rand.NewSource(67))
	run := func(n, r0 int, ks []int, tag string) {
		f, err := FactorInPlace(randMatrix(r, n, n), make([]int, n))
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range ks {
			rhs, dst := randMatrix(r, n, k), New(n, k)
			b.Run(fmt.Sprintf("n=%d/k=%d%s", n, k, tag), func(b *testing.B) {
				benchEngines(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						dst.CopyFrom(rhs)
						f.SolveFromRow(dst, r0)
					}
				})
			})
		}
	}
	for _, n := range []int{2, 6, 14, 40} {
		run(n, 0, []int{1, 2, 3, 4, 5, 6}, "")
	}
	for _, s := range []struct{ n, floor, lo, hi int }{{15, 5, 6, 10}, {7, 4, 4, 7}, {20, 10, 11, 15}} {
		var ks []int
		for k := s.lo; k <= s.hi; k++ {
			ks = append(ks, k)
		}
		for _, r0 := range []int{0, s.floor} {
			run(s.n, r0, ks, fmt.Sprintf("/floor=%d", r0))
		}
	}
}

// BenchmarkNarrowFactor is the same for avxFactorColUpdate. Up to order 6
// every trailing block is narrower than vecMinLen, so scalar against fused
// there is the old dispatch floor against the new one on the last pivots of
// any factorization.
func BenchmarkNarrowFactor(b *testing.B) {
	r := rand.New(rand.NewSource(69))
	for _, n := range []int{3, 4, 5, 6} {
		a, lu, piv := randMatrix(r, n, n), New(n, n), make([]int, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchEngines(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lu.CopyFrom(a)
					if err := factorInPlace(lu, piv); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkNarrowGemm is the same for GemmInto's NoTrans·NoTrans tile, on
// the n×k·k×w shapes the benchmark workloads run: 7×7×7 on `fet_iv` (55 %
// of its GEMM multiply-adds: agnr7's W†·(d∘W) at s = |I| = 7, and W·x at
// the density width c_Γ + r_Γ = 7); 15×25×15, 5×10×5, 10×5×10 and 15×5×5
// on `wire_serial` (sinw: s = 15, |I| = 25, couplings 10×5); 4×3×4, 7×4×3
// and 3×4×3 on `ribbon_fabric` (agnr7's transmission pass, couplings 3×4).
func BenchmarkNarrowGemm(b *testing.B) {
	r := rand.New(rand.NewSource(68))
	for _, s := range [][3]int{{7, 7, 7}, {15, 25, 15}, {5, 10, 5}, {10, 5, 10}, {15, 5, 5}, {4, 3, 4}, {7, 4, 3}, {3, 4, 3}} {
		a, c, dst := randMatrix(r, s[0], s[1]), randMatrix(r, s[1], s[2]), New(s[0], s[2])
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			benchEngines(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					GemmInto(dst, 1, a, NoTrans, c, NoTrans, 0)
				}
			})
		})
	}
}
