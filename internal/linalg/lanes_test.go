package linalg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/perf"
)

// laneOperands draws Lanes independent rows×cols operands, each lane its
// own zero pattern and special values.
func laneOperands(r *rand.Rand, rows, cols int, class string) (*LaneMatrix, [Lanes]*Matrix) {
	lm := NewLaneMatrix(rows, cols)
	var solo [Lanes]*Matrix
	for l := range solo {
		solo[l] = specialMat(r, rows, cols, class)
		setLane(lm, l, solo[l])
	}
	return lm, solo
}

// allLanes is the mask of every lane.
const allLanes = LaneMask(1<<Lanes - 1)

// setLane copies src into lane l of lm.
func setLane(lm *LaneMatrix, l int, src *Matrix) {
	for e, v := range src.Data {
		lm.Set(l, e/src.Cols, e%src.Cols, v)
	}
}

func requireLane(t *testing.T, what string, got *LaneMatrix, l int, want *Matrix) {
	t.Helper()
	m := New(got.Rows, got.Cols)
	got.LaneInto(m, l)
	requireBits(t, fmt.Sprintf("%s lane %d", what, l), m.Data, want.Data)
}

// laneOrder draws an order in 1…40, weighted toward the narrow end the
// decimation runs at.
func laneOrder(r *rand.Rand) int {
	if r.Intn(3) == 0 {
		return 1 + r.Intn(40)
	}
	return 1 + r.Intn(16)
}

// TestLaneKernelsBitwise holds each lane kernel to the scalar reference of
// its solo counterpart, lane by lane, on both engines: orders 1–40, widths
// 1–9, every operand class (signed zeros, ±Inf, NaN), every lane its own
// operands — so lanes pick different pivot rows, skip different pairs and
// meet zero pivots at different steps. The lane kernels count no flop.
func TestLaneKernelsBitwise(t *testing.T) {
	scalars := []complex128{1, -1, complex(0.5, -2)}

	t.Run("gemm", func(t *testing.T) {
		r := rand.New(rand.NewSource(81))
		for it := 0; it < 300; it++ {
			class := operandClasses[it%len(operandClasses)]
			n, k, w := laneOrder(r), laneOrder(r), 1+r.Intn(9)
			if it%50 == 0 {
				k = gemmBlock + 1 + r.Intn(8)
			}
			alpha := scalars[r.Intn(len(scalars))]
			beta := complex(float64(r.Intn(2)), 0)
			a, as := laneOperands(r, n, k, class)
			b, bs := laneOperands(r, k, w, class)
			seed, seeds := laneOperands(r, n, w, class)
			eachEngine(t, func(engine string) {
				got := NewLaneMatrix(n, w)
				got.CopyFrom(seed)
				before := perf.Flops()
				LaneGemmInto(got, alpha, a, b, beta)
				if d := perf.Flops() - before; d != 0 {
					t.Fatalf("LaneGemmInto counted %d flops", d)
				}
				for l := 0; l < Lanes; l++ {
					want := seeds[l].Clone()
					refGemmInto(want, alpha, as[l], NoTrans, bs[l], NoTrans, beta)
					requireLane(t, engine+" gemm", got, l, want)
				}
			})
		}
	})

	// square draws lane operands diagonally boosted except on every fourth
	// iteration and in one lane of every third, left raw (often singular or
	// poisoned by a non-finite entry).
	square := func(r *rand.Rand, it, n int, class string) (*LaneMatrix, [Lanes]*Matrix) {
		lm, solo := laneOperands(r, n, n, class)
		for l, a := range solo {
			if it%4 == 0 || it%3 == 0 && l == it%Lanes {
				continue
			}
			for i := 0; i < n; i++ {
				a.Data[i*n+i] += complex(float64(n), 0.5)
			}
			setLane(lm, l, a)
		}
		return lm, solo
	}

	t.Run("factor", func(t *testing.T) {
		r := rand.New(rand.NewSource(82))
		for it := 0; it < 300; it++ {
			class := operandClasses[it%len(operandClasses)]
			n := laneOrder(r)
			a, as := square(r, it, n, class)
			live := LaneMask(r.Intn(16)) | 1
			eachEngine(t, func(engine string) {
				lu := NewLaneMatrix(n, n)
				lu.CopyFrom(a)
				piv, col := make([]int, Lanes*n), make([]complex128, n)
				singular := laneFactorInPlace(lu, piv, col, live)
				for l := 0; l < Lanes; l++ {
					if !live.Has(l) {
						continue
					}
					want, wantPiv := as[l].Clone(), make([]int, n)
					err := refFactorInPlace(want, wantPiv)
					if (err != nil) != singular.Has(l) {
						t.Fatalf("%s factor n=%d lane %d: singular %v, reference error %v", engine, n, l, singular.Has(l), err)
					}
					if err != nil {
						continue // the solo factor stopped mid-way: nothing to compare
					}
					for k, p := range wantPiv {
						if piv[l*n+k] != p {
							t.Fatalf("%s factor n=%d lane %d: pivot %d is %d, want %d", engine, n, l, k, piv[l*n+k], p)
						}
					}
					requireLane(t, engine+" factor", lu, l, want)
				}
			})
		}
	})

	t.Run("solve", func(t *testing.T) {
		r := rand.New(rand.NewSource(83))
		for it := 0; it < 300; it++ {
			class := operandClasses[it%len(operandClasses)]
			n, w := laneOrder(r), 1+r.Intn(9)
			// Factors from the reference, each lane its own, and right-hand
			// sides with their own zeros and specials.
			f := NewLaneMatrix(n, n)
			var fs [Lanes]*Matrix
			var pivs [Lanes][]int
			for l := range fs {
				for pivs[l] = make([]int, n); ; { // a non-finite entry may still zero a pivot: redraw
					fs[l] = specialMat(r, n, n, class)
					for i := 0; i < n; i++ {
						fs[l].Data[i*n+i] += complex(float64(n), 0.5)
					}
					if refFactorInPlace(fs[l], pivs[l]) == nil {
						break
					}
				}
				setLane(f, l, fs[l])
			}
			b, bs := laneOperands(r, n, w, class)
			eachEngine(t, func(engine string) {
				got := NewLaneMatrix(n, w)
				got.CopyFrom(b)
				for l := 0; l < Lanes; l++ {
					for k, p := range pivs[l] {
						if p != k {
							swapLaneRows(got.Data, w, k, p, l)
						}
					}
				}
				laneSweeps(f, got)
				for l := 0; l < Lanes; l++ {
					want := bs[l].Clone()
					refLuSolveInPlace(fs[l], pivs[l], want, 0)
					requireLane(t, engine+" solve", got, l, want)
				}
			})
		}
	})

	t.Run("inverse", func(t *testing.T) {
		r := rand.New(rand.NewSource(84))
		var f LaneLU
		for it := 0; it < 200; it++ {
			class := operandClasses[it%len(operandClasses)]
			n := laneOrder(r)
			a, as := square(r, it, n, class)
			eachEngine(t, func(engine string) {
				inv := NewLaneMatrix(n, n)
				before := perf.Flops()
				singular := LaneInverseInto(inv, a, allLanes, &f)
				if d := perf.Flops() - before; d != 0 {
					t.Fatalf("LaneInverseInto counted %d flops", d)
				}
				for l := 0; l < Lanes; l++ {
					want := New(n, n)
					err := refInverseInto(want, as[l])
					if (err != nil) != singular.Has(l) || err != nil && !errors.Is(err, ErrSingular) {
						t.Fatalf("%s inverse n=%d lane %d: singular %v, reference error %v", engine, n, l, singular.Has(l), err)
					}
					if err == nil {
						requireLane(t, engine+" inverse", inv, l, want)
					}
				}
			})
		}
	})
}

// BenchmarkLaneKernels times one Lanes-wide inverse and the decimation's
// products at its two shapes — AGNR-7's s = 7 layer with 3×4 couplings and
// the Si nanowire's s = 15 with 10×5 — against Lanes solo calls of the same
// kernels on the same operands.
func BenchmarkLaneKernels(b *testing.B) {
	shapes := []struct {
		name    string
		s, r, c int
	}{{"s7_r3_c4", 7, 3, 4}, {"s15_r10_c5", 15, 10, 5}}
	for _, sh := range shapes {
		r := rand.New(rand.NewSource(85))
		bulk, bulks := laneOperands(r, sh.s, sh.s, "plain")
		for l := range bulks {
			for i := 0; i < sh.s; i++ {
				bulks[l].Data[i*sh.s+i] += complex(float64(sh.s), 0.5)
			}
			setLane(bulk, l, bulks[l])
		}
		alpha, alphas := laneOperands(r, sh.r, sh.c, "plain")
		g, gs := laneOperands(r, sh.c, sh.c, "plain")
		b.Run(sh.name+"/inverse/lanes", func(b *testing.B) {
			inv := NewLaneMatrix(sh.s, sh.s)
			var f LaneLU
			for i := 0; i < b.N; i++ {
				LaneInverseInto(inv, bulk, allLanes, &f)
			}
		})
		b.Run(sh.name+"/inverse/solo", func(b *testing.B) {
			ws := GetWorkspace()
			defer ws.Release()
			inv := New(sh.s, sh.s)
			for i := 0; i < b.N; i++ {
				for _, a := range bulks {
					_ = InverseInto(inv, a, ws)
				}
			}
		})
		b.Run(sh.name+"/gemm/lanes", func(b *testing.B) {
			dst := NewLaneMatrix(sh.r, sh.c)
			for i := 0; i < b.N; i++ {
				LaneGemmInto(dst, 1, alpha, g, 0)
			}
		})
		b.Run(sh.name+"/gemm/solo", func(b *testing.B) {
			dst := New(sh.r, sh.c)
			for i := 0; i < b.N; i++ {
				for l := range alphas {
					MulInto(dst, alphas[l], NoTrans, gs[l], NoTrans)
				}
			}
		})
	}
}
