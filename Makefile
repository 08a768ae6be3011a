GO ?= go
GOFMT ?= gofmt

.PHONY: build fmt-check vet check spec-check spec-golden scaling-golden test race portable-kernels faults fuzz-smoke drill-dist drill-failover drill-serve unreached unreached-check bench bench-pairs bench-baseline bench-check bench-vet ci clean

# The benchmarks gated by the allocation baseline. The T2 solves and the
# cold self-energy miss draw their workspaces from sync.Pools, where a P
# migration mid-run refills a workspace and moves allocs/op by whole
# multiples, so they run under
# steadyAllocs (bench_test.go: one P, pools warmed) and their allocs/op
# repeats exactly. The sweeps and the wire runs allocate hundreds of
# thousands of objects per op; pool refills move those by well under 1%,
# inside the 10% gate. A regression therefore means a real change in the
# solve's memory discipline, not machine noise.
BENCH_GUARDED = BenchmarkT2_KernelCost|BenchmarkT2_SigmaMiss|BenchmarkF1_GateSweep_CacheReuse|BenchmarkW1_Wire
BENCH_BASELINE = BENCH_kernels.json

build:
	$(GO) build ./...

fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

check: fmt-check vet spec-check

# The -dump-spec output of omen is pinned to the spec package's golden
# files: canonical JSON plus all four content hashes. A diff here means
# the encoding (and with it every content-addressed hash) drifted.
# Regenerate deliberately with `make spec-golden`.
spec-check:
	$(GO) build -o bin/omen ./cmd/omen
	bin/omen -dump-spec | diff internal/spec/testdata/agnr7.golden - \
		|| { echo "omen -dump-spec drifted from internal/spec/testdata/agnr7.golden"; exit 1; }

# Refresh the golden spec files after a deliberate encoding change.
spec-golden:
	$(GO) test ./internal/spec/ -run Golden -update

# Refresh cmd/scaling's study goldens after a deliberate model change; the
# test then asks EXPERIMENTS.md to quote each one verbatim.
scaling-golden:
	$(GO) test ./cmd/scaling/ -run Golden -update

test:
	$(GO) test ./...

# Under the race detector the whole suite runs in full — negf's adversarial
# energies (every interior level of every T1 family; -short trims the grid)
# and a concurrent first visit to one block family among them.
race:
	$(GO) test -race ./...

# The portable fallback of the linalg kernels, engine-wide: the purego
# build tag compiles the AVX assembly out, the kernel and solver packages
# must pass their tests on the scalar loops alone — cmd/omen's with them,
# so the committed goldens are held on the scalar kernels too — and an
# omen built that way must print the AVX build's observables and flop
# total byte for byte on a wave-function sweep at n = 40, one at n = 14
# (|C| = 4 coupling columns, 1–3 injection columns: solves and products of
# every width from 2 to 5, which the fused kernels take since PR 28), a
# self-consistent NEGF I-V run (RGF with density on the reduced layers:
# s = 7 of n = 14 orbitals, each interior recovered from its eigenpairs),
# the same I-V run in the wave-function formalism (density on: every
# layer's interior recovered from the reduced open system), an NEGF
# transmission sweep at n = 40 — the density-off RGF, where the g_i column
# solve and the r-sized products beside it both run the fused AVX kernels —
# the same wave-function sweep on three SplitSolve domains (spike
# solves and the reduced interface system), and a two-momentum `utb`
# sweep — the one preset with bonds wrapping y, whose canonical bond
# key carries the wrap, and with Bloch-phased complex blocks. Both I-V
# runs must also print the same bytes at -workers 1 and 2: the nested
# bias × energy borrowing must not move a bit, and each bias point's
# Anderson history must see the same charges in the same order. The five
# transmission sweeps run uncached and are compared in full; the I-V runs
# drop their `# sigma-cache` line, whose hit/coalesced split is timing.
# The two wave-function transmission sweeps (sinw and agnr7) must also
# print the same bytes at -workers 1 and 2: a pool job is a lane group of
# up to four energies whose self-energies run in lockstep, and neither the
# groups nor the pool width may move a bit or a counted flop.
PORTABLE_WF = -device sinw -formalism wf -ne 60
PORTABLE_WF_NARROW = -device agnr7 -formalism wf -ne 120
PORTABLE_IV = -device agnr7 -formalism negf -mode iv -nvg 2 -cellsx 8
PORTABLE_WF_IV = -device agnr7 -mode iv -formalism wf -nvg 2 -cellsx 8
PORTABLE_RGF = -device sinw -formalism negf -ne 60
PORTABLE_SPLIT = -device sinw -formalism wf -domains 3 -ne 60
PORTABLE_UTB = -device utb -nk 2 -ne 30
portable-kernels:
	$(GO) test -tags purego ./internal/linalg/ ./internal/sparse/ ./internal/negf/ ./internal/wavefunction/ ./internal/splitsolve/ ./cmd/omen/
	$(GO) build -o bin/omen ./cmd/omen
	$(GO) build -tags purego -o bin/omen-purego ./cmd/omen
	@for run in "$(PORTABLE_WF)" "$(PORTABLE_WF_NARROW)" "$(PORTABLE_RGF)" "$(PORTABLE_SPLIT)" "$(PORTABLE_UTB)"; do \
		bin/omen $$run > bin/portable.avx.txt || exit 1; \
		bin/omen-purego $$run > bin/portable.purego.txt || exit 1; \
		grep -q '^# flops' bin/portable.avx.txt || { echo "portable-kernels: no # flops line from omen $$run"; exit 1; }; \
		cmp bin/portable.avx.txt bin/portable.purego.txt \
			|| { echo "portable-kernels: purego output differs from the AVX build on: omen $$run"; exit 1; }; \
		echo "portable-kernels: omen $$run byte-identical across builds"; \
	done
	@for run in "$(PORTABLE_WF)" "$(PORTABLE_WF_NARROW)"; do \
		bin/omen $$run -workers 1 > bin/portable.w1.txt || exit 1; \
		bin/omen $$run -workers 2 > bin/portable.w2.txt || exit 1; \
		cmp bin/portable.w1.txt bin/portable.w2.txt \
			|| { echo "portable-kernels: omen $$run differs between -workers 1 and 2"; exit 1; }; \
		echo "portable-kernels: omen $$run byte-identical at -workers 1 and 2"; \
	done
	@for run in "$(PORTABLE_IV)" "$(PORTABLE_WF_IV)"; do \
		bin/omen $$run | grep -v '^# sigma-cache' > bin/portable.avx.txt || exit 1; \
		bin/omen-purego $$run | grep -v '^# sigma-cache' > bin/portable.purego.txt || exit 1; \
		grep -q '^# flops' bin/portable.avx.txt || { echo "portable-kernels: no # flops line from omen $$run"; exit 1; }; \
		cmp bin/portable.avx.txt bin/portable.purego.txt \
			|| { echo "portable-kernels: purego output differs from the AVX build on: omen $$run"; exit 1; }; \
		echo "portable-kernels: omen $$run byte-identical across builds"; \
		bin/omen $$run -workers 1 | grep -v '^# sigma-cache' > bin/portable.w1.txt || exit 1; \
		bin/omen $$run -workers 2 | grep -v '^# sigma-cache' > bin/portable.w2.txt || exit 1; \
		cmp bin/portable.w1.txt bin/portable.w2.txt \
			|| { echo "portable-kernels: omen $$run differs between -workers 1 and 2"; exit 1; }; \
		echo "portable-kernels: omen $$run byte-identical at -workers 1 and 2"; \
	done

# The fault-injection suite: panic isolation, retry/backoff, journal
# resume, torn group commits, the coordinator's commit pipeline and
# quarantine drills, under the race detector.
faults:
	$(GO) test -race -run 'Fault|Drill|Resum|Quarantine|Panic|Journal|Injector|Retr|Backoff|Classify|Timeout|Commit|Torn|Drain|LeaseTable' \
		./internal/resilience/ ./internal/sched/ ./internal/cluster/ ./internal/transport/ ./internal/core/ ./internal/distrib/ ./internal/run/

# Every fuzz target in the repo, five seconds each. `go test -fuzz`
# accepts one target of one package per run, so the targets are
# discovered with -list — a new Fuzz function is picked up without
# touching this file — and fuzzed one invocation at a time. A package
# whose tests do not compile fails the target instead of being skipped.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg) || { echo "$$list"; echo "fuzz-smoke: cannot list the tests of $$pkg"; exit 1; }; \
		for target in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s $$pkg || exit 1; \
		done; \
	done

# The distributed kill drill: coordinator + 4 workers under 10% fault
# injection, one worker SIGKILLed mid-run. Passes only if observables
# and the merged flop count are byte-identical to a serial run, and a
# -resume over the finished journal replays it without starting a worker.
drill-dist:
	$(GO) build -o bin/omen ./cmd/omen
	sh scripts/drill_dist.sh bin/omen

# The coordinator-failover drill: the coordinator is SIGKILLed mid-sweep
# and restarted with -resume on the same port; rejoin-capable workers
# must survive it. Passes only if observables and the merged flop count
# stay byte-identical to a serial run and the journal holds exactly one
# record per task at epoch >= 2.
drill-failover:
	$(GO) build -o bin/omen ./cmd/omen
	$(GO) build -o bin/journalcheck ./cmd/journalcheck
	sh scripts/drill_failover.sh bin/omen bin/journalcheck

# The simulation-service drill: the omend daemon driven over HTTP — a
# worker SIGKILLed mid-job, a completed spec replayed from its journal
# with zero new solves, and a SIGTERM drain resumed across a daemon
# restart. Every result must be byte-identical to the serial engine
# with the exact same flop count.
drill-serve:
	$(GO) build -o bin/omend ./cmd/omend
	$(GO) build -o bin/omen ./cmd/omen
	$(GO) build -o bin/journalcheck ./cmd/journalcheck
	sh scripts/drill_serve.sh bin/omend bin/omen bin/journalcheck

# Report the non-test internal/ functions that no binary links (every
# cmd/, examples/ and the bench/ ledger, built with inlining off): what
# only tests reach. Report only — it gates nothing.
unreached:
	GO=$(GO) sh scripts/unreached.sh

# Fail when the report names a function that scripts/unreached.txt does
# not list: new code that only tests reach must be deleted or listed on
# purpose. Fail too when the list names a symbol the report no longer
# does, so deleted or newly linked code takes its line with it. Symbols
# only, so moving a listed function does not trip it.
unreached-check:
	@mkdir -p bin
	GO=$(GO) sh scripts/unreached.sh > bin/unreached.report
	@awk '{ print $$2 }' bin/unreached.report | LC_ALL=C sort -u > bin/unreached.now
	@grep -v '^#' scripts/unreached.txt | LC_ALL=C sort -u > bin/unreached.listed
	@LC_ALL=C comm -23 bin/unreached.now bin/unreached.listed > bin/unreached.new
	@LC_ALL=C comm -13 bin/unreached.now bin/unreached.listed > bin/unreached.stale
	@if [ -s bin/unreached.new ]; then \
		echo "unreached-check: no binary links these, and scripts/unreached.txt does not list them:"; \
		cat bin/unreached.new; fi
	@if [ -s bin/unreached.stale ]; then \
		echo "unreached-check: scripts/unreached.txt lists these, and the report no longer names them:"; \
		cat bin/unreached.stale; fi
	@if [ -s bin/unreached.new ] || [ -s bin/unreached.stale ]; then exit 1; fi
	@echo "unreached-check: scripts/unreached.txt lists exactly the unreached functions"

bench:
	$(GO) test -bench . -benchtime 0.5s -run '^$$' ./internal/...

# Alternating same-seed pairs of end-to-end runs of a parent checkout and
# this tree on one workload, then -compare (bench/README.md, "Comparing a
# change with its parent"): make bench-pairs PARENT=/path/to/parent-clone
# [WORKLOAD=wire_serial] [N=10].
WORKLOAD ?= wire_serial
N ?= 10
bench-pairs:
	@if [ -z "$(PARENT)" ]; then echo "bench-pairs: set PARENT to a checkout of the parent commit" >&2; exit 2; fi
	sh scripts/bench_pairs.sh "$(PARENT)" . $(WORKLOAD) $(N)

# Refresh the committed allocation baseline for the guarded benchmarks.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_GUARDED)' -benchmem -benchtime 3x . \
		| $(GO) run ./cmd/benchguard -write $(BENCH_BASELINE)

# Fail if allocs/op of any guarded benchmark regressed >10% vs baseline.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_GUARDED)' -benchmem -benchtime 3x . \
		| $(GO) run ./cmd/benchguard -check $(BENCH_BASELINE) -tolerance 0.10

# The perf ledger under bench/ is a module of its own that the root
# build and tests never see, and its traced build (tag layertrace) pins
# exported signatures of the engine's packages: vet both builds and run
# its tests, so a refactor that breaks a pinned symbol fails here.
bench-vet:
	$(GO) -C bench vet ./...
	$(GO) -C bench vet -tags layertrace ./...
	$(GO) -C bench test ./...

ci: check build race bench-vet unreached-check

clean:
	$(GO) clean ./...
	rm -rf bin .bench_build
