package perf

import (
	"fmt"
	"io"
	"sort"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the given metric prefix — the /metrics face of the job
// service. Output is deterministic (phases and counters sorted by name)
// so scrapes and tests see a stable page. Counter names pass through a
// label rather than the metric name: engine counters ("sigma-hits",
// "lease-grants") are an open set, and label values need no sanitizing.
func (s Snapshot) WritePrometheus(w io.Writer, prefix string) {
	fmt.Fprintf(w, "# TYPE %s_flops_total counter\n", prefix)
	fmt.Fprintf(w, "%s_flops_total %d\n", prefix, s.Flops)

	if len(s.Phases) > 0 {
		names := make([]string, 0, len(s.Phases))
		for name := range s.Phases {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# TYPE %s_phase_calls_total counter\n", prefix)
		for _, name := range names {
			fmt.Fprintf(w, "%s_phase_calls_total{phase=%q} %d\n", prefix, name, s.Phases[name].Calls)
		}
		fmt.Fprintf(w, "# TYPE %s_phase_wall_seconds_total counter\n", prefix)
		for _, name := range names {
			fmt.Fprintf(w, "%s_phase_wall_seconds_total{phase=%q} %g\n", prefix, name, s.Phases[name].Wall.Seconds())
		}
	}

	if len(s.Counters) > 0 {
		names := make([]string, 0, len(s.Counters))
		for name := range s.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# TYPE %s_counter_total counter\n", prefix)
		for _, name := range names {
			fmt.Fprintf(w, "%s_counter_total{name=%q} %d\n", prefix, name, s.Counters[name])
		}
	}
}
