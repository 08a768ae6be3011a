package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// The four workloads. Each stresses a different set of layers; README.md
// carries the full reasoning and BENCHMARK.json the one-line version.
const (
	wlWire    = "wire_serial"
	wlRibbon  = "ribbon_fabric"
	wlService = "service_mix"
	wlFET     = "fet_iv"
)

var workloadNames = []string{wlWire, wlRibbon, wlService, wlFET}

// Sizes. The issue sized units for 30–45 s timed windows; the acceptance
// protocol gives each run about 30 s in total (92 runs inside 3420 s), so
// units are cut to roughly 1–2.5 s while keeping device, formalism and
// process topology — more units per window also steadies the medians.
const (
	wireNE        = 400  // sinw, wf, ≈2.8 ms/point
	wireCheckNE   = 100  // set-up check unit
	ribbonNE      = 1500 // agnr7, wf, 2 workers + fsynced journal
	ribbonCheckNE = 300
	fetNVG        = 3 // agnr7, negf, 3 bias points on 2 workers: nested borrowing
	fetCheckNVG   = 2
	fetCheckCells = 8 // shorter ribbon for the set-up check unit only
	serviceNE     = 120
	// serviceArchivePerRep archive jobs are run to completion in each of
	// the setupReps set-up passes; every one can be replayed once in the
	// timed window (a second submission would be a dedup hit, not a
	// journal replay).
	serviceArchivePerRep = 18
	serviceReplayEvery   = 6 // every 6th unit of a client is a replay
	// serviceRoundUnits units per client make one round of the timed
	// window; the host gauge is sampled between rounds.
	serviceRoundUnits  = 2 * serviceReplayEvery
	serviceFixedCostNE = 8
	setupReps          = 3
	deltaMax           = 5e-3 // eV for energy windows, V for gate grids
)

// unitSpec is one generated unit of work. It is the only thing that
// crosses from the seeded generator to the system under test: the CLI
// sees flags(), omend and the in-process traced run see specJSON().
type unitSpec struct {
	Mode      string // "transmission" | "iv"
	Device    string
	Formalism string
	NE        int
	EMin      float64
	EMax      float64
	NVG       int
	VGMin     float64
	VGMax     float64
	CellsX    int // 0: the device preset's length
	Workers   int
}

func ffmt(x float64) string { return strconv.FormatFloat(x, 'f', 9, 64) }

// flags renders the unit as omen command-line flags.
func (u unitSpec) flags() []string {
	f := []string{"-device", u.Device, "-mode", u.Mode, "-formalism", u.Formalism,
		"-workers", strconv.Itoa(u.Workers)}
	if u.CellsX > 0 {
		f = append(f, "-cellsx", strconv.Itoa(u.CellsX))
	}
	switch u.Mode {
	case "iv":
		f = append(f, "-nvg", strconv.Itoa(u.NVG), "-vgmin", ffmt(u.VGMin), "-vgmax", ffmt(u.VGMax))
	default:
		f = append(f, "-ne", strconv.Itoa(u.NE), "-emin", ffmt(u.EMin), "-emax", ffmt(u.EMax))
	}
	return f
}

// specJSON renders the unit as a partial RunSpec body (fields left out
// take the engine's defaults, exactly as unset flags do).
func (u unitSpec) specJSON() []byte {
	dev := map[string]any{"name": u.Device}
	if u.CellsX > 0 {
		dev["cellsX"] = u.CellsX
	}
	grid := map[string]any{}
	if u.Mode == "iv" {
		grid["nVG"], grid["vgMin"], grid["vgMax"] = u.NVG, u.VGMin, u.VGMax
	} else {
		grid["nE"], grid["eMin"], grid["eMax"] = u.NE, u.EMin, u.EMax
	}
	b, err := json.Marshal(map[string]any{
		"mode":   u.Mode,
		"device": dev,
		"grid":   grid,
		"solver": map[string]any{"formalism": u.Formalism},
		"exec":   map[string]any{"workers": u.Workers},
	})
	if err != nil {
		panic(err) // maps of scalars always marshal
	}
	return b
}

// stream separates the unit families of one run so that no two of them
// can collide on a SpecHash: families differ in window width, and units
// within a family differ in δ.
type stream int

const (
	streamTimed   stream = iota // timed units (fresh jobs on service_mix)
	streamCheck                 // set-up check units
	streamArchive               // service_mix archive jobs
	streamProbe                 // service_mix fixed-cost jobs of the traced run
)

// The offsets δ ∈ [0, deltaMax) come from a fixed pool of poolSize
// evenly spaced values, and the seed decides the order in which a run
// takes them. A pool, not a continuum, because units must not fail: at
// the commit this benchmark was written against, the wave-function
// solver's contact-mode eigensolver ("QL iteration failed to converge")
// rejects a few isolated energies — of the order of one grid point in
// 10⁵–10⁶ — deterministically, and a sweep that contains one fails as a
// whole.
// `bench -validate-pool` runs every pool unit once and prints the
// offsets to reject; rejectedOffsets holds its findings, so every unit a
// run can generate has been seen to succeed. ROADMAP item (4) tracks the
// defect itself.
const poolSize = 1024

// poolStep is the pool spacing in nano-units (1e-9 eV or V): offsets
// print exactly with nine decimals.
const poolStep = int64(deltaMax*1e9) / poolSize

// rejectedOffsets lists, per workload and stream, the pool indices whose
// unit fails. Regenerate with `go run . -validate-pool`.
var rejectedOffsets = map[string]map[stream][]int{
	wlRibbon: {
		streamTimed: {896}, // task 163, E ≈ -2.3432 eV: "left injection: QL iteration failed to converge"
	},
}

// generator hands out the units of one run. A given (seed, workload)
// always yields the same sequence per stream, and no offset twice, so
// every unit of a run is a distinct spec.
type generator struct {
	workload string
	order    [4][]int // per stream: the seeded order of admissible pool indices
	pos      [4]int
}

func newGenerator(workload string, seed uint64) *generator {
	g := &generator{workload: workload}
	h := seed
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	for st := range g.order {
		bad := make(map[int]bool)
		for _, k := range rejectedOffsets[workload][stream(st)] {
			bad[k] = true
		}
		for k := 0; k < poolSize; k++ {
			if !bad[k] {
				g.order[st] = append(g.order[st], k)
			}
		}
		rng := splitmix(h + uint64(st+1)*0x9e3779b97f4a7c15)
		o := g.order[st]
		for i := len(o) - 1; i > 0; i-- { // Fisher–Yates
			j := int(rng.next() % uint64(i+1))
			o[i], o[j] = o[j], o[i]
		}
	}
	return g
}

// splitmix is splitmix64: tiny, seedable, and good enough to shuffle.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next generates the next unit of a stream. A run that outlasts the
// pool would repeat specs, which the service answers with a dedup hit
// instead of a job; no window the flags allow gets there.
func (g *generator) next(st stream) unitSpec {
	if g.pos[st] >= len(g.order[st]) {
		panic(fmt.Sprintf("bench: %s stream %d exhausted its %d pool offsets", g.workload, st, len(g.order[st])))
	}
	k := g.order[st][g.pos[st]]
	g.pos[st]++
	return unitAt(g.workload, st, k)
}

// shift adds δ to a base value and rounds to the nine decimals flags()
// prints, so the CLI and JSON forms of a unit carry the same number.
func shift(base, d float64) float64 { return math.Round((base+d)*1e9) / 1e9 }

// unitAt is the unit of a workload's stream at pool index k.
func unitAt(workload string, st stream, k int) unitSpec {
	d := float64(int64(k)*poolStep) / 1e9
	switch workload {
	case wlWire:
		u := unitSpec{Mode: "transmission", Device: "sinw", Formalism: "wf", Workers: 1,
			NE: wireNE, EMin: shift(-2, d), EMax: shift(2, d)}
		if st == streamCheck {
			u.NE = wireCheckNE
		}
		return u
	case wlRibbon:
		u := unitSpec{Mode: "transmission", Device: "agnr7", Formalism: "wf", Workers: 2,
			NE: ribbonNE, EMin: shift(-3, d), EMax: shift(3, d)}
		if st == streamCheck {
			u.NE = ribbonCheckNE
		}
		return u
	case wlFET:
		u := unitSpec{Mode: "iv", Device: "agnr7", Formalism: "negf", Workers: 2,
			NVG: fetNVG, VGMin: shift(-0.4, d), VGMax: shift(0.6, d)}
		if st == streamCheck {
			u.NVG, u.CellsX, u.VGMax = fetCheckNVG, fetCheckCells, shift(-0.3, d)
		}
		return u
	case wlService:
		// exec.workers stays 0: the daemon's -default-workers decides.
		u := unitSpec{Mode: "transmission", Device: "agnr7", Formalism: "wf",
			NE: serviceNE, EMin: shift(-3, d), EMax: shift(3, d)}
		switch st {
		case streamArchive:
			u.EMax = shift(3.01, d) // a window no fresh job can have
		case streamCheck:
			u.EMax = shift(3.02, d)
		case streamProbe:
			u.NE = serviceFixedCostNE
		}
		return u
	}
	panic(fmt.Sprintf("unknown workload %q", workload))
}

// serialReference is the plain single-process omen run a check unit is
// diffed against.
func (u unitSpec) serialReference() unitSpec {
	u.Workers = 1
	return u
}
