package machine

import "fmt"

// The modeled studies of EXPERIMENTS.md — F4 strong scaling, F5 weak
// scaling, T3 phase breakdown, F6 per-level efficiency — are defined here
// and nowhere else: their workload, core counts, weak-scaling steps and
// level groups. cmd/scaling prints the rows these methods return and the
// root benchmarks report their headlines from the same calls.

// Flagship mirrors the paper's production scenario: a full I-V sweep (16
// bias points) of a large spin-resolved sp3d5s* nanowire FET with 21
// momentum points and 1316 energy points per bias — two even rounds over
// the 658 energy groups of the full machine, as a production grid is
// chosen. Both contacts inject their whole Γ support: 2 × rank columns.
func Flagship() Workload {
	const rank = 120
	return Workload{
		NBias: 16, NK: 21, NE: 1316,
		NLayers: 140, BlockSize: 480, RHSWidth: 2 * rank,
		SelfEnergyIterations: 30,
		EnergyCostCV:         0.1,
		CouplingRank:         rank,
	}
}

// Resized returns w on another device: layers principal layers of block
// orbitals, rhs injection columns and rank nonzero coupling columns (0:
// dense). Task counts, decimation depth and cost heterogeneity stay w's.
func (w Workload) Resized(layers, block, rhs, rank int) Workload {
	w.NLayers, w.BlockSize, w.RHSWidth, w.CouplingRank = layers, block, rhs, rank
	return w
}

var (
	// strongCounts are the paper's machine sizes, from two racks up to the
	// full system.
	strongCounts = []int{672, 1344, 2688, 5376, 10752, 21504, 43008, 86016, 172032, 221400}
	// weakSteps grow the flagship's cross-section with the machine (a wire
	// diameter sweep), keeping the work per core roughly fixed.
	weakSteps = []struct{ cores, block, layers int }{
		{2688, 120, 100},
		{10752, 190, 110},
		{43008, 300, 120},
		{120000, 420, 130},
		{221400, 480, 140},
	}
	// phaseCounts are the machine sizes of the phase breakdown.
	phaseCounts = []int{5376, 43008, 221400}
	// levelGroups are the group counts each level is tried at, up to its
	// own task count.
	levelGroups = []int{2, 4, 8, 16, 32, 64, 128}
)

// Strong is the strong-scaling study (F4): the flagship on the paper's
// machine sizes.
func (m MachineModel) Strong() ([]Report, error) { return m.StrongScaling(Flagship(), strongCounts) }

// Weak is the weak-scaling study (F5): the device grows with the machine.
func (m MachineModel) Weak() ([]Report, error) {
	rows := make([]Report, 0, len(weakSteps))
	for _, st := range weakSteps {
		r, err := m.PredictAuto(Flagship().Resized(st.layers, st.block, 2*(st.block/4), st.block/4), st.cores)
		if err != nil {
			return nil, fmt.Errorf("machine: %d cores: %w", st.cores, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Phases is the phase breakdown (T3): where the flagship's wall time goes
// at three machine sizes.
func (m MachineModel) Phases() ([]Report, error) { return m.StrongScaling(Flagship(), phaseCounts) }

// LevelRow is one row of the per-level study: Groups groups on one level,
// every other level serial.
type LevelRow struct {
	Level  string
	Groups int
	Report
}

// Levels is the per-level efficiency study (F6): each parallelism level of
// the flagship in isolation.
func (m MachineModel) Levels() ([]LevelRow, error) {
	w := Flagship()
	var rows []LevelRow
	for _, l := range []struct {
		name  string
		tasks int
		level func(d *Decomposition) *int
	}{
		{"bias", w.NBias, func(d *Decomposition) *int { return &d.Bias }},
		{"momentum", w.NK, func(d *Decomposition) *int { return &d.Momentum }},
		{"energy", w.NE, func(d *Decomposition) *int { return &d.Energy }},
		{"domains", w.NLayers, func(d *Decomposition) *int { return &d.Domains }},
	} {
		for _, n := range levelGroups {
			if n > l.tasks {
				break
			}
			d := Decomposition{Bias: 1, Momentum: 1, Energy: 1, Domains: 1}
			*l.level(&d) = n
			r, err := m.Predict(w, d)
			if err != nil {
				return nil, err
			}
			rows = append(rows, LevelRow{l.name, n, r})
		}
	}
	return rows, nil
}
