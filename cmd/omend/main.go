// Command omend is the simulation-as-a-service daemon: an HTTP front
// end that turns the distributed sweep engine into a job service.
// Clients POST a RunSpec to /v1/jobs and get back a job ID — the spec's
// content hash, so identical submissions are by construction the same
// job. The daemon validates, queues with per-client quotas and priority
// classes, and runs each job through the distributed coordinator with
// self-spawned worker processes, journaling results to -data. A
// completed spec re-submitted is served by journal replay (zero new
// solves); a drained or crashed job resumes from its journal on the
// next submission.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a spec (202 queued, 200 dedup)
//	GET    /v1/jobs             list jobs (live + journaled history)
//	GET    /v1/jobs/{id}        job status and perf
//	GET    /v1/jobs/{id}/result finished sweep, omen's exact text format
//	GET    /v1/jobs/{id}/stream SSE: points and counters as they commit
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness, version, load
//	GET    /metrics             Prometheus counters
//
// SIGTERM drains gracefully: admissions stop, running jobs journal what
// they have and land "drained", the HTTP listener closes, exit 0.
// SIGINT cancels hard (exit 130).
//
// Example:
//
//	omend -addr :8080 -data /var/lib/omend &
//	curl -s localhost:8080/v1/jobs -d '{"grid":{"ne":512}}'
//	curl -N localhost:8080/v1/jobs/<id>/stream
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/run"
	"repro/internal/server"
	"repro/internal/spec"
)

func main() {
	var (
		addr           = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		dataDir        = flag.String("data", "omend-data", "data directory: one journal per job, the service's durable state")
		maxRunning     = flag.Int("max-running", 2, "jobs executing concurrently")
		maxQueue       = flag.Int("max-queue", 16, "admission queue bound; submissions beyond it get 429")
		quota          = flag.Int("quota", 4, "per-client live-job quota (-1: unlimited)")
		defaultWorkers = flag.Int("default-workers", 2, "worker processes per job when the spec leaves exec.workers at 0")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM: wait this long for running jobs to drain before exiting")
		version        = flag.Bool("version", false, "print the build version (module version plus VCS revision) and exit")

		// Hidden worker mode: the run harness re-execs the daemon into one
		// worker per job slot (run.ReExec), exactly like `omen -worker` —
		// process isolation: a crashing worker loses a lease, not the
		// service.
		workerAddr = flag.String("worker", "", "internal: run as a sweep worker dialing this address")
		specJSON   = flag.String("spec-json", "", "internal: inline JSON spec for -worker")
	)
	flag.Parse()

	if *version {
		fmt.Printf("omend %s\n", buildinfo.Version())
		return
	}

	if *workerAddr != "" {
		s, err := spec.Parse([]byte(*specJSON))
		if err != nil {
			fatal(err)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := run.Work(ctx, s, *workerAddr); err != nil {
			fatal(err)
		}
		return
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "omend: "+format+"\n", args...)
	}
	m, err := server.NewManager(server.Config{
		DataDir:        *dataDir,
		MaxRunning:     *maxRunning,
		MaxQueued:      *maxQueue,
		ClientQuota:    *quota,
		DefaultWorkers: *defaultWorkers,
		SpawnWorker:    run.ReExec,
		Logf:           logf,
	})
	if err != nil {
		fatal(err)
	}

	api := &server.API{M: m, Version: buildinfo.Version()}
	srv := &http.Server{Addr: *addr, Handler: api.Handler()}

	errC := make(chan error, 1)
	go func() {
		logf("listening on %s (data %s, %d executors, version %s)",
			*addr, *dataDir, *maxRunning, buildinfo.Version())
		errC <- srv.ListenAndServe()
	}()

	term := make(chan os.Signal, 1)
	intr := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	signal.Notify(intr, os.Interrupt)

	select {
	case err := <-errC:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-intr:
		// Hard stop: cancel running jobs, close the listener, exit 130.
		logf("SIGINT — canceling jobs and exiting")
		srv.Close()
		m.Close()
		os.Exit(130)
	case <-term:
		// Graceful drain: stop admissions, let running jobs journal what
		// they have and land resumable, then close the listener. The
		// HTTP server keeps answering status/stream requests while jobs
		// drain, so clients watch their jobs land "drained".
		logf("SIGTERM — draining (up to %v)", *drainTimeout)
		m.Drain(*drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			srv.Close()
		}
		logf("drained — journals in %s are resumable by re-submission", *dataDir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "omend:", err)
	os.Exit(1)
}
