package main

// The metric catalogue. BENCHMARK.json at the repository root carries
// the same names, units, directions and bounds for the driver;
// TestBenchmarkJSONMatchesRunner keeps the two from drifting.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // regression bound as a share of the parent's median; 0 for per-layer metrics
	// SpreadExempt: a run-to-run spread wider than the bound does not make
	// a comparison unresolved. Only setup_s, as in the driver's protocol:
	// three short passes are the noisiest samples of a run, and its bound
	// is already the widest allowed.
	SpreadExempt bool
}

// endToEnd is reported by every end-to-end run of every workload. Every
// time in it is host-normalised: the measured time divided by the host
// factor of the reference samples around it (hostref.go), so it reads as
// the time on this box with the host quiet. Failures are not a metric
// here: the contract line carries attempted and failed as counts, and
// any failed unit fails the command.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, SpreadExempt: true},
	{Name: "unit_wall_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_kpoint", Unit: "s", Better: "lower", Bound: 0.25},
}

// serviceOnly is measured by the end-to-end run of service_mix alone.
// The driver's contract wants every end-to-end metric on every workload
// and never zero, so these three live in the ledger (-out) and in
// -compare, with their bounds, rather than in BENCHMARK.json's
// end_to_end list; the traced run reports in-process counterparts under
// server.*.
var serviceOnly = []metricDef{
	{Name: "job_wall_p90_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sse_first_point_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "replay_wall_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is reported by every traced run. A layer a workload never
// executes reports 0 for its metrics — that the number is zero there is
// part of the ledger (see README.md, "which workload moves which layer").
var perLayer = []metricDef{
	{Name: "spec.parse_validate_us", Unit: "us", Better: "lower"},
	{Name: "spec.hash_us", Unit: "us", Better: "lower"},
	{Name: "spec.build_ms", Unit: "ms", Better: "lower"},

	{Name: "tb.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "tb.assemble_alloc_bytes", Unit: "B", Better: "lower"},

	{Name: "negf.sigma_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "negf.sigma_hit_us", Unit: "us", Better: "lower"},
	{Name: "negf.sigma_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "negf.decimations_per_point", Unit: "count", Better: "lower"},
	{Name: "negf.rgf_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "negf.rgf_density_solve_ms", Unit: "ms", Better: "lower"},

	{Name: "wavefunction.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "wavefunction.new_solver_ms", Unit: "ms", Better: "lower"},

	{Name: "linalg.flops_per_point", Unit: "count", Better: "lower"},
	{Name: "linalg.sustained_gflops", Unit: "GFlop/s", Better: "higher"},
	{Name: "linalg.zgemm_probe_gflops", Unit: "GFlop/s", Better: "higher"},
	{Name: "linalg.stream_probe_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "linalg.stream_array_mb", Unit: "MB", Better: "higher"},
	{Name: "linalg.llc_mb", Unit: "MB", Better: "higher"},
	{Name: "linalg.frac_of_zgemm_probe", Unit: "ratio", Better: "higher"},
	{Name: "linalg.bytes_per_flop_computed", Unit: "B/flop", Better: "lower"},
	{Name: "linalg.machine_balance_bytes_per_flop", Unit: "B/flop", Better: "higher"},
	{Name: "linalg.allocs_per_point", Unit: "count", Better: "lower"},
	{Name: "linalg.alloc_bytes_per_point", Unit: "B", Better: "lower"},

	{Name: "transport.task_busy_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.task_busy_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "core.write_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scf_iters_per_bias", Unit: "count", Better: "lower"},
	{Name: "core.bias_point_s", Unit: "s", Better: "lower"},

	{Name: "poisson.phase_wall_frac", Unit: "ratio", Better: "lower"},
	{Name: "sched.pool_idle_frac", Unit: "ratio", Better: "lower"},

	{Name: "cluster.append_us", Unit: "us", Better: "lower"},
	{Name: "cluster.append_fsync_us", Unit: "us", Better: "lower"},
	{Name: "cluster.journal_bytes_per_task", Unit: "B", Better: "lower"},
	{Name: "cluster.journal_busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "cluster.load_ms_per_kpoint", Unit: "ms", Better: "lower"},
	{Name: "cluster.tail_poll_us", Unit: "us", Better: "lower"},

	{Name: "comms.bytes_per_task", Unit: "B", Better: "lower"},
	{Name: "comms.frames_per_task", Unit: "count", Better: "lower"},
	{Name: "comms.send_us", Unit: "us", Better: "lower"},
	{Name: "comms.recv_us", Unit: "us", Better: "lower"},

	{Name: "distrib.noop_task_us", Unit: "us", Better: "lower"},
	{Name: "distrib.noop_task_journal_us", Unit: "us", Better: "lower"},
	{Name: "distrib.lease_rtt_us", Unit: "us", Better: "lower"},
	{Name: "distrib.worker_idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "distrib.commit_delay_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.commit_delay_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.overhead_ratio_1w", Unit: "ratio", Better: "lower"},
	{Name: "distrib.redispatched", Unit: "count", Better: "lower"},
	{Name: "distrib.steals", Unit: "count", Better: "lower"},

	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.admission_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.run_s", Unit: "s", Better: "lower"},
	{Name: "server.job_wall_s", Unit: "s", Better: "lower"},
	{Name: "server.job_fixed_cost_ms", Unit: "ms", Better: "lower"},
	{Name: "server.result_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sse_first_point_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sse_emit_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sse_emit_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sse_gap_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "server.dedup_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_ratio", Unit: "ratio", Better: "lower"},

	// Where a traced unit's wall went, as shares of it: task execution,
	// journal appends, wire reads and writes, and worker idle time (lease
	// wait). Zero by construction where the layer is not on the path.
	{Name: "self.task_frac", Unit: "ratio", Better: "higher"},
	{Name: "self.journal_frac", Unit: "ratio", Better: "lower"},
	{Name: "self.wire_frac", Unit: "ratio", Better: "lower"},
	{Name: "self.idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "self.accounted_frac", Unit: "ratio", Better: "higher"},

	{Name: "proc.startup_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb.serial", Unit: "MB", Better: "lower"},
	{Name: "proc.peak_rss_mb.coordinator", Unit: "MB", Better: "lower"},
	{Name: "proc.peak_rss_mb.worker", Unit: "MB", Better: "lower"},
	{Name: "proc.peak_rss_mb.daemon", Unit: "MB", Better: "lower"},
	{Name: "setup.go_build_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}
