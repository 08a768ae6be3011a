package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
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

// everyMask lists every live mask.
var everyMask = func() (m []LaneMask) {
	for live := LaneMask(0); live <= allLanes; live++ {
		m = append(m, live)
	}
	return m
}()

// engineBits holds the AVX engine's lane factor to the fallback's whole
// result — every lane, live or not, and every pivot. Lanes outside live
// and lanes gone singular hold no factor, but the one loop both engines
// share for those lanes must leave them the same, so the kernel's live
// mask and its hand-off to that loop are held too.
type engineBits struct {
	m   *LaneMatrix
	piv []int
}

func (e *engineBits) check(t *testing.T, what, engine string, m *LaneMatrix, piv []int) {
	t.Helper()
	if engine == "fallback" {
		e.m, e.piv = NewLaneMatrix(m.Rows, m.Cols), slices.Clone(piv)
		e.m.CopyFrom(m)
		return
	}
	if !slices.Equal(piv, e.piv) {
		t.Fatalf("%s %s: pivots %v, fallback %v", engine, what, piv, e.piv)
	}
	for l := 0; l < Lanes; l++ {
		want := New(m.Rows, m.Cols)
		e.m.LaneInto(want, l)
		requireLane(t, engine+" "+what+" against the fallback", m, l, want)
	}
}

// nearBand lists relative row scalings δ about the pivot band: |z|²
// scales by (1+δ)², so 2δ inside sqBand, just past it, and a few ulps.
var nearBand = []float64{1.5e-13, -1.5e-13, 4e-13, -4e-13, 1e-12, -1e-12, 3e-12, 0x1p-52, -0x1p-52, 0x1p-50}

// pivotSpecials are pivots on Smith's branches: |re| = |im|, |re| < |im|,
// |re| > |im|, and ±0 parts, where 0·ratio and 0 − ratio are signed.
var pivotSpecials = func() []complex128 {
	nz := math.Copysign(0, -1)
	return []complex128{
		complex(1.5, 1.5), complex(-0.75, 0.75), complex(2, -2), complex(0.3, 2.5),
		complex(-0.4, -3), complex(2.5, 0.3), complex(0, 2), complex(nz, 2),
		complex(0, -2), complex(nz, -2), complex(2, 0), complex(2, nz),
		complex(-2, 0), complex(-2, nz), complex(1, 0),
	}
}()

// pivotEdges draws Lanes n×n operands at the lane factor's pivot edges,
// each lane one of six kinds, the first drawn and the rest in turn:
//   - raw: unboosted, so rows swap at most columns;
//   - tie: two rows scaled to hold column 0's largest modulus, the second
//     −i times the first, so their |z|² tie exactly in column 0 and, while
//     neither is the pivot, through the elimination;
//   - near: the second row (1+δ) times the first, δ from nearBand;
//   - diag: a row-permuted diagonal of pivotSpecials, one nonzero per
//     column, so every column brings its special up and inverts it;
//   - singular: a zero column c, so the lane turns singular at step c
//     while the others go on — fast and slow columns alternate;
//   - range: scaled so the largest modulus sits just inside or just
//     outside sqLo or sqHi.
func pivotEdges(r *rand.Rand, n int) (*LaneMatrix, [Lanes]*Matrix) {
	lm := NewLaneMatrix(n, n)
	var solo [Lanes]*Matrix
	kind0 := r.Intn(6)
	for l := range solo {
		a := specialMat(r, n, n, "plain")
		switch kind := (kind0 + l) % 6; kind {
		case 1, 2:
			if n == 1 {
				break
			}
			i, j := r.Intn(n), r.Intn(n-1)
			if j >= i {
				j++
			}
			scale := complex(1+nearBand[r.Intn(len(nearBand))], 0)
			for c := 0; c < n; c++ {
				v := 8 * a.Data[i*n+c]
				a.Data[i*n+c] = v
				if kind == 1 {
					a.Data[j*n+c] = complex(imag(v), -real(v))
				} else {
					a.Data[j*n+c] = v * scale
				}
			}
		case 3:
			clear(a.Data)
			for c, i := range r.Perm(n) {
				a.Data[i*n+c] = pivotSpecials[r.Intn(len(pivotSpecials))]
			}
		case 4:
			c := r.Intn(n)
			for i := 0; i < n; i++ {
				a.Data[i*n+c] = 0
			}
		case 5:
			var top float64
			for i := 0; i < n; i++ {
				top = max(top, cmplx.Abs(a.Data[i*n]))
			}
			if top == 0 {
				break
			}
			bound := []float64{1e-140, 1e140}[r.Intn(2)]
			scale := bound * (1 + []float64{-1e-9, 1e-9}[r.Intn(2)]) / top
			for e, v := range a.Data {
				a.Data[e] = complex(real(v)*scale, imag(v)*scale)
			}
		}
		solo[l] = a
		setLane(lm, l, a)
	}
	return lm, solo
}

// refMaxAbs is sparse.MaxAbs, the decimation's convergence norm: the
// largest |re| or |im|, NaN if any part is NaN.
func refMaxAbs(m *Matrix) float64 {
	var mx float64
	for _, v := range m.Data {
		re, im := math.Abs(real(v)), math.Abs(imag(v))
		if math.IsNaN(re) || math.IsNaN(im) {
			return math.NaN()
		}
		mx = max(mx, re, im)
	}
	return mx
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

	// draw returns square lane operands and the live masks to run them at:
	// one random mask, or on every third iteration pivotEdges' operands at
	// every mask.
	draw := func(r *rand.Rand, it, n int, class string) (*LaneMatrix, [Lanes]*Matrix, []LaneMask) {
		if it%3 == 2 {
			a, as := pivotEdges(r, n)
			return a, as, everyMask
		}
		a, as := square(r, it, n, class)
		return a, as, []LaneMask{LaneMask(r.Intn(16)) | 1}
	}

	t.Run("factor", func(t *testing.T) {
		r := rand.New(rand.NewSource(82))
		for it := 0; it < 300; it++ {
			class := operandClasses[it%len(operandClasses)]
			n := laneOrder(r)
			a, as, masks := draw(r, it, n, class)
			var wants [Lanes]*Matrix
			var wantPivs [Lanes][]int
			var wantErrs [Lanes]error
			for l := range wants {
				wants[l], wantPivs[l] = as[l].Clone(), make([]int, n)
				wantErrs[l] = refFactorInPlace(wants[l], wantPivs[l])
			}
			var sameEngines engineBits
			for _, live := range masks {
				eachEngine(t, func(engine string) {
					lu := NewLaneMatrix(n, n)
					lu.CopyFrom(a)
					piv, col := make([]int, Lanes*n), make([]complex128, n)
					singular := laneFactorInPlace(lu, piv, col, live)
					sameEngines.check(t, fmt.Sprintf("factor n=%d live=%04b", n, live), engine, lu, piv)
					for l := 0; l < Lanes; l++ {
						if !live.Has(l) {
							for k, p := range piv[l*n : (l+1)*n] {
								if p != k {
									t.Fatalf("%s factor n=%d live=%04b: lane %d outside live has pivot %d at %d", engine, n, live, l, p, k)
								}
							}
							continue
						}
						err := wantErrs[l]
						if (err != nil) != singular.Has(l) {
							t.Fatalf("%s factor n=%d live=%04b lane %d: singular %v, reference error %v", engine, n, live, l, singular.Has(l), err)
						}
						if err != nil {
							continue // the solo factor stopped mid-way: nothing to compare
						}
						for k, p := range wantPivs[l] {
							if piv[l*n+k] != p {
								t.Fatalf("%s factor n=%d live=%04b lane %d: pivot %d is %d, want %d", engine, n, live, l, k, piv[l*n+k], p)
							}
						}
						requireLane(t, engine+" factor", lu, l, wants[l])
					}
				})
			}
		}
	})

	// The solve runs at floors r0 in [0, n]: rows r0… of every lane must be
	// the floored reference solve's, rows below it the forward sweep's (the
	// reference at floor n), as SolveFromRow leaves them.
	floor := func(r *rand.Rand, it, n int) int {
		if it%3 == 0 {
			return 0
		}
		return r.Intn(n + 1)
	}
	requireFloored := func(t *testing.T, what string, got *LaneMatrix, l int, f *Matrix, piv []int, b *Matrix, r0 int) {
		t.Helper()
		want, fwd := b.Clone(), b.Clone()
		refLuSolveInPlace(f, piv, want, r0)
		refLuSolveInPlace(f, piv, fwd, f.Rows)
		requireLane(t, fmt.Sprintf("%s r0=%d", what, r0), got, l, want)
		m := New(got.Rows, got.Cols)
		got.LaneInto(m, l)
		requireBits(t, fmt.Sprintf("%s r0=%d lane %d rows below the floor", what, r0, l), m.Data[:r0*m.Cols], fwd.Data[:r0*m.Cols])
	}

	t.Run("solve", func(t *testing.T) {
		r := rand.New(rand.NewSource(83))
		for it := 0; it < 300; it++ {
			class := operandClasses[it%len(operandClasses)]
			n, w := laneOrder(r), 1+r.Intn(9)
			r0 := floor(r, it, n)
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
				laneSolve(f, slices.Concat(pivs[:]...), allLanes, got, r0)
				for l := 0; l < Lanes; l++ {
					requireFloored(t, engine+" solve", got, l, fs[l], pivs[l], bs[l], r0)
				}
			})
		}
	})

	// The lane factor and its floored solve as the block-Thomas sweep runs
	// them: LaneFactorInPlace, then SolveFromRow, whose lane row
	// permutation applies each lane's own swaps. A lane that meets a zero
	// pivot is reported and the others keep their bits.
	t.Run("factor-solve", func(t *testing.T) {
		r := rand.New(rand.NewSource(87))
		ws := GetWorkspace()
		defer ws.Release()
		for it := 0; it < 300; it++ {
			class := operandClasses[it%len(operandClasses)]
			n, w := laneOrder(r), 1+r.Intn(9)
			r0 := floor(r, it, n)
			a, as, masks := draw(r, it, n, class)
			b, bs := laneOperands(r, n, w, class)
			for _, live := range masks {
				eachEngine(t, func(engine string) {
					m, got := NewLaneMatrix(n, n), NewLaneMatrix(n, w)
					m.CopyFrom(a)
					got.CopyFrom(b)
					before := perf.Flops()
					f, singular := LaneFactorInPlace(m, live, ws)
					f.SolveFromRow(got, r0)
					if d := perf.Flops() - before; d != 0 {
						t.Fatalf("LaneLU counted %d flops", d)
					}
					for l := 0; l < Lanes; l++ {
						if !live.Has(l) {
							continue
						}
						fac, piv := as[l].Clone(), make([]int, n)
						err := refFactorInPlace(fac, piv)
						if (err != nil) != singular.Has(l) {
							t.Fatalf("%s factor-solve n=%d live=%04b lane %d: singular %v, reference error %v", engine, n, live, l, singular.Has(l), err)
						}
						if err == nil {
							requireFloored(t, engine+" factor-solve", got, l, fac, piv, bs[l], r0)
						}
					}
				})
			}
		}
	})

	t.Run("inverse", func(t *testing.T) {
		r := rand.New(rand.NewSource(84))
		ws := GetWorkspace()
		defer ws.Release()
		for it := 0; it < 200; it++ {
			class := operandClasses[it%len(operandClasses)]
			n := laneOrder(r)
			a, as, masks := draw(r, it, n, class)
			if it%3 != 2 {
				masks = []LaneMask{allLanes}
			}
			for _, live := range masks {
				eachEngine(t, func(engine string) {
					inv := NewLaneMatrix(n, n)
					before := perf.Flops()
					singular := LaneInverseInto(inv, a, live, ws)
					if d := perf.Flops() - before; d != 0 {
						t.Fatalf("LaneInverseInto counted %d flops", d)
					}
					for l := 0; l < Lanes; l++ {
						if !live.Has(l) {
							continue
						}
						want := New(n, n)
						err := refInverseInto(want, as[l])
						if (err != nil) != singular.Has(l) || err != nil && !errors.Is(err, ErrSingular) {
							t.Fatalf("%s inverse n=%d live=%04b lane %d: singular %v, reference error %v", engine, n, live, l, singular.Has(l), err)
						}
						if err == nil {
							requireLane(t, engine+" inverse", inv, l, want)
						}
					}
				})
			}
		}
	})

	// Partial masks on purpose: in every update lane z's multipliers are
	// ±0 and every other lane's are nonzero, and the rows lane z reads and
	// writes hold ±0 and ±Inf, where an update applied anyway would show —
	// 0·Inf is NaN, and −0 − (−0) is +0. So each GEMM pair and single, each
	// update of both solve sweeps and each row of the factor's first column
	// runs with a partial mask: a kernel that took its blend-free loop there
	// moves lane z's bits.
	t.Run("partial", func(t *testing.T) {
		r := rand.New(rand.NewSource(89))
		nz := math.Copysign(0, -1)
		// edge[:4] are the signed zeros.
		edge := []complex128{0, complex(nz, 0), complex(0, nz), complex(nz, nz), complex(math.Inf(1), 0), complex(nz, math.Inf(-1))}
		fill := func(rows, cols int, at func() complex128) *Matrix {
			m := New(rows, cols)
			for e := range m.Data {
				m.Data[e] = at()
			}
			return m
		}
		edges := func(rows, cols int) *Matrix {
			return fill(rows, cols, func() complex128 { return edge[r.Intn(len(edge))] })
		}
		zeros := func(rows, cols int) *Matrix { return fill(rows, cols, func() complex128 { return edge[r.Intn(4)] }) }
		dense := func(rows, cols int) *Matrix {
			return fill(rows, cols, func() complex128 { return complex(r.NormFloat64(), r.NormFloat64()) })
		}
		boost := func(m *Matrix) *Matrix {
			for i := 0; i < m.Rows; i++ {
				m.Data[i*m.Cols+i] += complex(float64(m.Rows), 0.5)
			}
			return m
		}
		// lanes returns a lane matrix of lane z from at and every other
		// lane from other, with the solo operands.
		type draw func(rows, cols int) *Matrix
		lanes := func(z, rows, cols int, at, other draw) (*LaneMatrix, [Lanes]*Matrix) {
			lm := NewLaneMatrix(rows, cols)
			var solo [Lanes]*Matrix
			for l := range solo {
				if solo[l] = other(rows, cols); l == z {
					solo[l] = at(rows, cols)
				}
				setLane(lm, l, solo[l])
			}
			return lm, solo
		}
		for it := 0; it < 48; it++ {
			z, n, w := it%Lanes, 3+it%6, 1+r.Intn(5)
			k := 2 + it%7 // pairs, and a single when odd

			a, as := lanes(z, n, k, zeros, dense)
			b, bs := lanes(z, k, w, edges, dense)
			seed, seeds := lanes(z, n, w, edges, dense)
			eachEngine(t, func(engine string) {
				got := NewLaneMatrix(n, w)
				got.CopyFrom(seed)
				LaneGemmInto(got, complex(0.5, -2), a, b, 1)
				for l := 0; l < Lanes; l++ {
					want := seeds[l].Clone()
					refGemmInto(want, complex(0.5, -2), as[l], NoTrans, bs[l], NoTrans, 1)
					requireLane(t, fmt.Sprintf("%s partial gemm z=%d", engine, z), got, l, want)
				}
			})

			// Lane z's factor is diagonal with ±0 elsewhere: every multiplier
			// of both sweeps is ±0 in lane z alone.
			f := NewLaneMatrix(n, n)
			var fs [Lanes]*Matrix
			var pivs [Lanes][]int
			for l := range fs {
				if fs[l], pivs[l] = boost(dense(n, n)), make([]int, n); l == z {
					fs[l] = boost(zeros(n, n))
				}
				if err := refFactorInPlace(fs[l], pivs[l]); err != nil {
					t.Fatalf("partial solve lane %d: %v", l, err)
				}
				setLane(f, l, fs[l])
			}
			rhs, rhss := lanes(z, n, w, edges, dense)
			eachEngine(t, func(engine string) {
				got := NewLaneMatrix(n, w)
				got.CopyFrom(rhs)
				laneSolve(f, slices.Concat(pivs[:]...), allLanes, got, 0)
				for l := 0; l < Lanes; l++ {
					requireFloored(t, fmt.Sprintf("%s partial solve z=%d", engine, z), got, l, fs[l], pivs[l], rhss[l], 0)
				}
			})

			// Lane z's column 0 is ±0 below a dense pivot row that holds ±0
			// and ±Inf past it: its multipliers there are ±0.
			sq, sqs := lanes(z, n, n, func(rows, cols int) *Matrix {
				m := boost(dense(rows, cols))
				copy(m.Data[1:cols], edges(1, cols-1).Data)
				for i := 1; i < rows; i++ {
					m.Data[i*cols] = edge[r.Intn(4)]
				}
				return m
			}, func(rows, cols int) *Matrix { return boost(dense(rows, cols)) })
			var sameEngines engineBits
			eachEngine(t, func(engine string) {
				lu := NewLaneMatrix(n, n)
				lu.CopyFrom(sq)
				piv := make([]int, Lanes*n)
				singular := laneFactorInPlace(lu, piv, make([]complex128, n), allLanes)
				sameEngines.check(t, fmt.Sprintf("partial factor z=%d", z), engine, lu, piv)
				for l := 0; l < Lanes; l++ {
					want, wantPiv := sqs[l].Clone(), make([]int, n)
					err := refFactorInPlace(want, wantPiv)
					if (err != nil) != singular.Has(l) {
						t.Fatalf("%s partial factor z=%d lane %d: singular %v, reference error %v", engine, z, l, singular.Has(l), err)
					}
					if err == nil {
						requireLane(t, fmt.Sprintf("%s partial factor z=%d", engine, z), lu, l, want)
					}
				}
			})
		}
	})

	t.Run("maxabs", func(t *testing.T) {
		r := rand.New(rand.NewSource(88))
		for it := 0; it < 200; it++ {
			class := operandClasses[it%len(operandClasses)]
			rows, cols := r.Intn(12), 1+r.Intn(9)
			a, as := laneOperands(r, rows, cols, class)
			eachEngine(t, func(engine string) {
				for l, got := range LaneMaxAbs(a) {
					want := refMaxAbs(as[l])
					if math.IsNaN(want) != math.IsNaN(got) || !math.IsNaN(want) && math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s maxabs %d×%d %s lane %d: %v, want %v", engine, rows, cols, class, l, got, want)
					}
				}
			})
		}
	})

	t.Run("trace", func(t *testing.T) {
		r := rand.New(rand.NewSource(86))
		for it := 0; it < 100; it++ {
			class := operandClasses[it%len(operandClasses)]
			n, w := laneOrder(r), 1+r.Intn(9)
			a, as := laneOperands(r, n, w, class)
			b, bs := laneOperands(r, n, w, class)
			before := perf.Flops()
			ws := GetWorkspace()
			got := LaneTraceMulConj(a, b, ws)
			ws.Release()
			if d := perf.Flops() - before; d != 0 {
				t.Fatalf("LaneTraceMulConj counted %d flops", d)
			}
			for l, v := range got {
				want := TraceMulConj(as[l], bs[l])
				requireBits(t, fmt.Sprintf("trace lane %d", l), []complex128{v}, []complex128{want})
			}
		}
	})
}

// withSquare returns a z whose re²+im², rounded as lanePivots rounds it,
// is t.
func withSquare(t float64) complex128 {
	a := math.Sqrt(t)
	for i := 0; i < 64; i, a = i+1, math.Nextafter(a, 0) {
		if a*a == t {
			return complex(a, 0)
		}
		b := math.Sqrt(t - a*a)
		for _, b := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, t)} {
			if a*a+b*b == t {
				return complex(a, b)
			}
		}
	}
	panic("linalg: no z with the requested |z|²")
}

// TestLaneFactorHandOff holds avxLaneFactor's hand-off to lanePivots' rule
// at the rule's edges: the kernel must stop at a column exactly when some
// live lane's verdict there is Go's. Each case is a three-row column 0
// whose verdict is known — a clear winner, an exact tie, the second
// exactly at and just under best·(1−sqBand), the best exactly at and just
// past sqLo and sqHi, a NaN, an Inf, a zero column — set in one lane with
// clear winners in the others, at every live mask. Bits are
// TestLaneKernelsBitwise's; this is the choice of path.
func TestLaneFactorHandOff(t *testing.T) {
	if !avxAvailable {
		t.Skip("no AVX lane kernels in this build")
	}
	keep := laneFactorConsts[2]
	down := func(x float64) float64 { return math.Nextafter(x, 0) }
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	cases := []struct {
		name string
		col  [3]complex128
		fast bool
	}{
		{"winner", [3]complex128{0.5, complex(0, -3), 1}, true},
		{"tie", [3]complex128{complex(0.5, 2), complex(2, -0.5), 1}, false},
		{"second at the band", [3]complex128{1, withSquare(keep), 0.25}, false},
		{"second under the band", [3]complex128{withSquare(down(keep)), 1, 0.25}, true},
		{"best at sqLo", [3]complex128{0, withSquare(sqLo), 0}, true},
		{"best under sqLo", [3]complex128{0, withSquare(down(sqLo)), 0}, false},
		{"best at sqHi", [3]complex128{withSquare(sqHi), 1, 0}, true},
		{"best past sqHi", [3]complex128{withSquare(up(sqHi)), 1, 0}, false},
		{"NaN", [3]complex128{4, complex(math.NaN(), 0), 1}, false},
		{"Inf", [3]complex128{4, complex(0, math.Inf(-1)), 1}, false},
		{"zero column", [3]complex128{0, complex(math.Copysign(0, -1), 0), 0}, false},
	}
	const n = 3
	for _, c := range cases {
		if fast := lanePivotsOf(c.col)[0] >= 0; fast != c.fast {
			t.Fatalf("%s: lanePivots decides fast %v, the case says %v", c.name, fast, c.fast)
		}
		for l := 0; l < Lanes; l++ {
			m := NewLaneMatrix(n, n)
			for ln := 0; ln < Lanes; ln++ {
				col := cases[0].col
				if ln == l {
					col = c.col
				}
				for i := 0; i < n; i++ {
					m.Set(ln, i, i, 1)
					m.Set(ln, i, 0, col[i])
				}
			}
			for _, live := range everyMask {
				d := NewLaneMatrix(n, n)
				d.CopyFrom(m)
				piv := make([]int, Lanes*n)
				stop := avxLaneFactor(&d.Data[0], n, 0, &piv[0], int(live), &laneFactorConsts[0], nil)
				if want := c.fast || !live.Has(l); (stop > 0) != want {
					t.Fatalf("%s in lane %d, live %04b: the kernel stopped at column %d, want fast %v", c.name, l, live, stop, want)
				}
			}
		}
	}
}

// lanePivotsOf runs lanePivots on column 0 of a 3×3 lane matrix holding
// col in lane 0.
func lanePivotsOf(col [3]complex128) [Lanes]int {
	m := NewLaneMatrix(3, 3)
	for i, v := range col {
		m.Set(0, i, 0, v)
	}
	return lanePivots(m.Data, 3, 0)
}

// maxAbsSink keeps BenchmarkLaneKernels' norm from being optimised away.
var maxAbsSink [Lanes]float64

// BenchmarkLaneKernels times one Lanes-wide inverse and the decimation's
// products at three shapes — AGNR-7's s = 7 layer with 3×4 couplings, the
// Si nanowire's s = 15 with 10×5 and the UTB film's s = 20 with 10×10 —
// against Lanes solo calls of the same kernels on the same operands. The
// inverse runs on diagonally boosted operands, whose factors never swap a
// row, and on raw ones, whose factors swap at most columns as the
// decimation's do. The partial variants zero lane Lanes−1 (the inverse
// leaves it out of live, as a retired lane is), so every update's lane
// mask is partial and the kernels run their blend loops; their solo side
// runs the other lanes. GFlop/s counts what the solo calls of the lanes
// served count. maxabs is the decimation's convergence norm over one s×s
// lane block, the kernel against its scalar loop.
func BenchmarkLaneKernels(b *testing.B) {
	shapes := []struct {
		name    string
		s, r, c int
	}{{"s7_r3_c4", 7, 3, 4}, {"s15_r10_c5", 15, 10, 5}, {"s20_r10_c10", 20, 10, 10}}
	const dead = Lanes - 1
	gflops := func(b *testing.B, flops int64) {
		b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
	}
	for _, sh := range shapes {
		r := rand.New(rand.NewSource(85))
		raw, raws := laneOperands(r, sh.s, sh.s, "plain")
		bulk, bulks := NewLaneMatrix(sh.s, sh.s), [Lanes]*Matrix{}
		for l := range bulks {
			bulks[l] = raws[l].Clone()
			for i := 0; i < sh.s; i++ {
				bulks[l].Data[i*sh.s+i] += complex(float64(sh.s), 0.5)
			}
			setLane(bulk, l, bulks[l])
		}
		part := NewLaneMatrix(sh.s, sh.s)
		part.CopyFrom(bulk)
		setLane(part, dead, New(sh.s, sh.s))
		alpha, alphas := laneOperands(r, sh.r, sh.c, "plain")
		alphaPart := NewLaneMatrix(sh.r, sh.c)
		alphaPart.CopyFrom(alpha)
		setLane(alphaPart, dead, New(sh.r, sh.c))
		g, gs := laneOperands(r, sh.c, sh.c, "plain")
		invFlops := perf.LUFlops(sh.s) + perf.SolveFromRowFlops(sh.s, 0, sh.s)
		for _, op := range []struct {
			name  string
			lanes *LaneMatrix
			live  LaneMask
			solo  []*Matrix
		}{
			{"inverse", bulk, allLanes, bulks[:]},
			{"inverse-pivoting", raw, allLanes, raws[:]},
			{"inverse-partial", part, allLanes &^ (1 << dead), bulks[:dead]},
		} {
			flops := int64(len(op.solo)) * invFlops
			b.Run(sh.name+"/"+op.name+"/lanes", func(b *testing.B) {
				ws := GetWorkspace()
				defer ws.Release()
				inv := NewLaneMatrix(sh.s, sh.s)
				for i := 0; i < b.N; i++ {
					LaneInverseInto(inv, op.lanes, op.live, ws)
				}
				gflops(b, flops)
			})
			b.Run(sh.name+"/"+op.name+"/solo", func(b *testing.B) {
				ws := GetWorkspace()
				defer ws.Release()
				inv := New(sh.s, sh.s)
				for i := 0; i < b.N; i++ {
					for _, a := range op.solo {
						_ = InverseInto(inv, a, ws)
					}
				}
				gflops(b, flops)
			})
		}
		for _, op := range []struct {
			name  string
			lanes *LaneMatrix
			solo  []*Matrix
		}{{"gemm", alpha, alphas[:]}, {"gemm-partial", alphaPart, alphas[:dead]}} {
			flops := int64(len(op.solo)) * perf.GemmFlops(sh.r, sh.c, sh.c)
			b.Run(sh.name+"/"+op.name+"/lanes", func(b *testing.B) {
				dst := NewLaneMatrix(sh.r, sh.c)
				for i := 0; i < b.N; i++ {
					LaneGemmInto(dst, 1, op.lanes, g, 0)
				}
				gflops(b, flops)
			})
			b.Run(sh.name+"/"+op.name+"/solo", func(b *testing.B) {
				dst := New(sh.r, sh.c)
				for i := 0; i < b.N; i++ {
					for l, a := range op.solo {
						MulInto(dst, a, NoTrans, gs[l], NoTrans)
					}
				}
				gflops(b, flops)
			})
		}
		for _, avx := range []bool{true, false} {
			name := sh.name + "/maxabs/lanes"
			if !avx {
				name = sh.name + "/maxabs/scalar"
			}
			b.Run(name, func(b *testing.B) {
				defer func(old bool) { hasAVX = old }(hasAVX)
				hasAVX = hasAVX && avx
				for i := 0; i < b.N; i++ {
					maxAbsSink = LaneMaxAbs(raw)
				}
			})
		}
	}
}
