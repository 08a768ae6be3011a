package main

import (
	"sync"
	"time"
)

// The host gauge. This VM has a few cores of a shared host, and the host
// slows them by a quarter to a half for minutes at a time: a run taken
// then reads that much worse than the same tree a minute earlier, and no
// statistic over the run's own units can tell. So every end-to-end run
// interleaves its units with a fixed reference kernel of the
// benchmark's own — frozen code that no change to the product can move —
// and reports its times divided by how much slower than nominal the
// reference ran around each unit. What is left is the time the unit
// would have taken on a quiet host; the raw times and the factors are in
// the report's notes.
//
// One sample is refThreads goroutines (one per CPU the workloads are
// sized for), each running a small dense complex multiply — the
// in-cache arithmetic the solvers are made of — and then a triad over
// arrays larger than L2, because the host's disturbances reach the
// memory system too and a purely in-cache kernel misses part of them.

const (
	refThreads  = 2
	refBlock    = 40      // complex128 block edge: the sinw orbital block
	refGemmReps = 1000    // multiplies per sample and goroutine
	refArrayLen = 1 << 20 // float64s per triad array: 8 MB, 24 MB per goroutine
	refTriads   = 60      // triad sweeps per sample and goroutine

	// refNominalS is one sample's wall time on the box the baseline was
	// taken on, with the host quiet. It only scales the reported numbers
	// (a factor of 1 reads as that box, undisturbed); comparisons between
	// two trees on one machine do not depend on it.
	refNominalS = 0.153
)

// refState is one goroutine's working set, kept between samples so that
// a sample times arithmetic and memory traffic, not allocation.
type refState struct {
	a, b, c []complex128
	x, y, z []float64
}

var (
	refStates [refThreads]*refState
	refSink   float64 // keeps the kernels' results alive
)

func newRefState() *refState {
	s := &refState{
		a: make([]complex128, refBlock*refBlock),
		b: make([]complex128, refBlock*refBlock),
		c: make([]complex128, refBlock*refBlock),
		x: make([]float64, refArrayLen),
		y: make([]float64, refArrayLen),
		z: make([]float64, refArrayLen),
	}
	for i := range s.a {
		s.a[i] = complex(float64(i%7)+0.5, float64(i%5)-1.5)
		s.b[i] = complex(float64(i%3)-0.25, float64(i%11)*0.125)
	}
	for i := range s.x {
		s.y[i] = float64(i%13) * 0.5
		s.z[i] = float64(i%7) * 0.25
	}
	return s
}

// run does one sample's work divided by div.
func (s *refState) run(div int) float64 {
	const n = refBlock
	for r := 0; r < refGemmReps/div; r++ {
		for i := 0; i < n; i++ {
			ci := s.c[i*n : (i+1)*n]
			for k := 0; k < n; k++ {
				aik := s.a[i*n+k]
				bk := s.b[k*n : (k+1)*n]
				for j := range ci {
					ci[j] += aik * bk[j]
				}
			}
		}
		// Feed a result back, scaled down, so that no multiply is dead code
		// and the values stay finite.
		s.a[r%len(s.a)] = s.c[(r*7)%len(s.c)] * 1e-9
	}
	x, y, z := s.x, s.y, s.z
	for r := 0; r < refTriads/div; r++ {
		for i := range x {
			x[i] = 0.5*y[i] + 0.5*z[i]
		}
		x, y, z = y, z, x
	}
	return real(s.c[3]) + y[5]
}

// refSample runs the reference kernel once and returns its wall time in
// seconds.
func refSample() float64 { return refRun(1) }

// refWarmDiv sizes the warm-up run that opens every reading: a quarter of
// a sample. The first sample after the benchmark process has been idle —
// and it is idle while a unit runs — is 5 % slower and three times as
// scattered as the ones after it (measured: inter-quartile spread 12–27 %
// against 3–8 %); 40 ms of the same work beforehand removes that, 16 ms
// does not.
const refWarmDiv = 4

// refRun runs 1/div of a sample on every goroutine and returns the wall
// time in seconds. The first call also builds the working sets, outside
// the timing. Only the run's own goroutine calls it.
func refRun(div int) float64 {
	for t := range refStates {
		if refStates[t] == nil {
			refStates[t] = newRefState()
		}
	}
	var (
		wg   sync.WaitGroup
		outs [refThreads]float64
	)
	t0 := time.Now()
	for t := range refStates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[t] = refStates[t].run(div)
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, o := range outs {
		refSink += o
	}
	return d
}

// refShare is how long the gauge samples the reference after a timed
// step, as a share of the step's own wall time. The host's speed also
// flickers from one tenth of a second to the next, for the reference as
// for the units, so the factor is only as good as the time spent
// measuring it: a third of the window goes to the reference, which is
// close to the split that makes the ratio of the two steadiest.
// Set-up passes get refShareSetup: setup_s is the median of three and is
// held to its bound by its median alone, so it can do with less.
const (
	refShare      = 0.5
	refShareSetup = 0.15
)

// gauge brackets the steps of a run with reference readings. A reading
// is the mean of the samples taken in one gap between two steps.
type gauge struct {
	before  float64   // the reading that opened the current interval
	factors []float64 // host factor of every interval closed so far
}

// refRead warms the kernel up, then samples it until the samples add up
// to want seconds (at least once), and returns their mean.
func refRead(want float64) float64 {
	refRun(refWarmDiv)
	var total float64
	n := 0
	for n == 0 || total < want {
		total += refSample()
		n++
	}
	return total / float64(n)
}

// newGauge opens the first interval.
func newGauge() *gauge {
	return &gauge{before: refRead(3 * refNominalS)}
}

// reopen discards the open interval and starts a new one with a full
// reading: after work that belongs to no step, and before a timed window.
func (g *gauge) reopen() { g.before = refRead(3 * refNominalS) }

// close ends the interval of a step that took stepWall seconds, reading
// the reference for share of that, and returns the step's host factor:
// how much slower than nominal the reference ran just before and just
// after it. The reading that closes one interval opens the next.
func (g *gauge) close(stepWall, share float64) float64 {
	after := refRead(share * stepWall)
	f := hostFactor(g.before, after)
	g.before = after
	g.factors = append(g.factors, f)
	return f
}

// hostFactor is how much slower than nominal the host ran over an
// interval bracketed by two reference readings.
func hostFactor(before, after float64) float64 {
	return (before + after) / 2 / refNominalS
}
