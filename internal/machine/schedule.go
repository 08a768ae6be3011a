package machine

import (
	"fmt"
	"math"
)

// Decomposition assigns core groups to the four parallelism levels of the
// simulator: bias points × transverse momentum × energy points × spatial
// (SplitSolve) domains. The total core count is the product.
type Decomposition struct {
	Bias, Momentum, Energy, Domains int
}

// Cores returns the number of cores the decomposition occupies.
func (d Decomposition) Cores() int { return d.Bias * d.Momentum * d.Energy * d.Domains }

// String implements fmt.Stringer.
func (d Decomposition) String() string {
	return fmt.Sprintf("%d bias × %d k × %d E × %d domains = %d cores",
		d.Bias, d.Momentum, d.Energy, d.Domains, d.Cores())
}

// Validate reports structural errors against a workload.
func (d Decomposition) Validate(w Workload) error {
	if d.Bias < 1 || d.Momentum < 1 || d.Energy < 1 || d.Domains < 1 {
		return fmt.Errorf("machine: decomposition levels must be positive, got %v", d)
	}
	if d.Bias > w.NBias || d.Momentum > w.NK || d.Energy > w.NE {
		return fmt.Errorf("machine: decomposition %v exceeds workload task counts (%d, %d, %d)",
			d, w.NBias, w.NK, w.NE)
	}
	if d.Domains > w.NLayers {
		return fmt.Errorf("machine: %d domains exceed %d layers", d.Domains, w.NLayers)
	}
	return nil
}

// AutoDecompose chooses a decomposition for the given core budget,
// saturating the embarrassingly parallel levels first (bias, then
// momentum, then energy) and spending leftover cores on spatial domains —
// the strategy the paper's multi-level scheme uses, since domain
// parallelism is the only level that pays communication and Schur
// overhead.
func AutoDecompose(cores int, w Workload) (Decomposition, error) {
	if err := w.Validate(); err != nil {
		return Decomposition{}, err
	}
	if cores < 1 {
		return Decomposition{}, fmt.Errorf("machine: need at least one core")
	}
	d := Decomposition{Bias: 1, Momentum: 1, Energy: 1, Domains: 1}
	rem := cores
	take := func(limit int) int {
		if rem <= 1 {
			return 1
		}
		n := rem
		if n > limit {
			n = limit
		}
		rem /= n
		return n
	}
	d.Bias = take(w.NBias)
	d.Momentum = take(w.NK)
	d.Energy = take(w.NE)
	d.Domains = take(w.NLayers)
	return d, nil
}

// PhaseBreakdown splits a predicted wall time into its components
// (seconds).
type PhaseBreakdown struct {
	// SelfEnergy is the contact surface-GF decimation time.
	SelfEnergy float64
	// Solve is the domain-parallel factorization/substitution time.
	Solve float64
	// Reduced is the serial Schur-complement interface solve of SplitSolve.
	Reduced float64
	// Communication is the interface message time.
	Communication float64
	// Imbalance is time lost to uneven task-to-group assignment at the
	// embarrassingly parallel levels.
	Imbalance float64
}

// Total returns the summed wall time.
func (p PhaseBreakdown) Total() float64 {
	return p.SelfEnergy + p.Solve + p.Reduced + p.Communication + p.Imbalance
}

// Report is the outcome of a performance prediction.
type Report struct {
	Machine        string
	Workload       Workload
	Decomposition  Decomposition
	CoresUsed      int
	WallTime       float64 // seconds
	SustainedFlops float64 // useful flop/s
	Efficiency     float64 // sustained / (cores × per-core sustained)
	Breakdown      PhaseBreakdown
}

// Predict models the wall time and sustained performance of running
// workload w with decomposition d on machine m. Sustained Flop/s counts
// only the algorithmically useful flops of the serial algorithm, so
// parallel overheads (spike columns, reduced system, replication) lower —
// never inflate — the reported rate, as in the paper's methodology.
func (m MachineModel) Predict(w Workload, d Decomposition) (Report, error) {
	if err := m.Validate(); err != nil {
		return Report{}, err
	}
	if err := w.Validate(); err != nil {
		return Report{}, err
	}
	if err := d.Validate(w); err != nil {
		return Report{}, err
	}
	if d.Cores() > m.TotalCores {
		return Report{}, fmt.Errorf("machine: %v exceeds the %d cores of %s", d, m.TotalCores, m.Name)
	}
	rate := m.SustainedFlopsPerCore()

	// Rounds of task execution at the embarrassingly parallel levels.
	rounds := float64(ceilDiv(w.NBias, d.Bias)) *
		float64(ceilDiv(w.NK, d.Momentum)) *
		float64(ceilDiv(w.NE, d.Energy))
	idealRounds := float64(w.Tasks()) / float64(d.Bias*d.Momentum*d.Energy)
	// Heterogeneous energy points: the slowest of g groups averaging m
	// points each runs ≈ (1 + cv·√(2·ln g / m)) over the mean — the
	// balls-in-bins tail that bends the paper's curves once groups shrink
	// to a handful of points.
	if w.EnergyCostCV > 0 && d.Energy > 1 {
		g := float64(d.Energy)
		mPts := float64(ceilDiv(w.NE, d.Energy))
		rounds *= 1 + w.EnergyCostCV*math.Sqrt(2*math.Log(g)/mPts)
	}

	ss, err := w.SplitSolve(d.Domains)
	if err != nil {
		return Report{}, err
	}
	if d.Domains == 1 { // one domain runs the serial solve, not SplitSolve
		ss = SplitSolveCost{CriticalFlops: w.WFSolveFlops()}
	}
	tSE := float64(w.SelfEnergyFlops()) / rate
	tSolve := float64(ss.CriticalFlops) / rate
	tReduced := float64(ss.ReducedFlops) / rate
	tComm := float64(ss.Messages) * (m.Latency + float64(ss.BytesPerMessage)/m.Bandwidth)

	perTask := tSE + tSolve + tReduced + tComm
	wall := rounds * perTask
	// Sweep-level collectives: the observables (transmission, charge) are
	// reduced across all task groups once per sweep — a log-depth
	// allreduce of the layer-resolved charge vector.
	var allreduce float64
	if groups := d.Bias * d.Momentum * d.Energy; groups > 1 {
		vecBytes := 16 * float64(w.NLayers) * float64(w.BlockSize)
		allreduce = math.Log2(float64(groups)) * (m.Latency + vecBytes/m.Bandwidth)
		wall += allreduce
	}
	breakdown := PhaseBreakdown{
		SelfEnergy:    idealRounds * tSE,
		Solve:         idealRounds * tSolve,
		Reduced:       idealRounds * tReduced,
		Communication: idealRounds*tComm + allreduce,
		Imbalance:     (rounds - idealRounds) * perTask,
	}
	sustained := float64(w.UsefulFlops()) / wall
	eff := sustained / (float64(d.Cores()) * rate)
	return Report{
		Machine:        m.Name,
		Workload:       w,
		Decomposition:  d,
		CoresUsed:      d.Cores(),
		WallTime:       wall,
		SustainedFlops: sustained,
		Efficiency:     eff,
		Breakdown:      breakdown,
	}, nil
}

// PredictAuto composes AutoDecompose and Predict.
func (m MachineModel) PredictAuto(w Workload, cores int) (Report, error) {
	d, err := AutoDecompose(cores, w)
	if err != nil {
		return Report{}, err
	}
	return m.Predict(w, d)
}

// StrongScaling sweeps core counts for a fixed workload, returning one
// report per count — the raw series behind the paper-style strong-scaling
// figure.
func (m MachineModel) StrongScaling(w Workload, coreCounts []int) ([]Report, error) {
	reports := make([]Report, 0, len(coreCounts))
	for _, c := range coreCounts {
		r, err := m.PredictAuto(w, c)
		if err != nil {
			return nil, fmt.Errorf("machine: %d cores: %w", c, err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// Speedup returns t(ref)/t(this) given a reference report.
func (r Report) Speedup(ref Report) float64 {
	if r.WallTime == 0 {
		return math.Inf(1)
	}
	return ref.WallTime / r.WallTime
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
