// Command edmd serves EDM simulation runs over HTTP.
//
// Runs are submitted as jobs, executed on a bounded worker pool behind
// a priority-aware admission queue, and observed by polling or by
// NDJSON streaming. Jobs may carry a priority class (batch, normal,
// interactive) and a tenant for fair share; when every worker
// is busy, an interactive arrival preempts the youngest lowest-class
// running job through an immediate checkpoint and the victim resumes
// transparently from its frame. A full queue pushes back with 429 +
// Retry-After derived from the live queue-wait estimate; SIGINT or
// SIGTERM drains in-flight jobs before exiting, force-cancelling them
// if the drain deadline passes.
//
//	edmd -addr :8080 -workers 4 -queue 64 -job-timeout 5m
//
//	curl -s localhost:8080/v1/runs -d '{"workload":"home02","policy":"hdf"}'
//	curl -s localhost:8080/v1/runs/run-00000001
//	curl -sN localhost:8080/v1/runs/run-00000001/stream
//	curl -s -X DELETE localhost:8080/v1/runs/run-00000001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edm/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (default: GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth before submissions get 429")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock cap (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight jobs before force-cancelling them")
	stateDir := flag.String("state-dir", "",
		"directory for crash-recovery state; jobs interrupted by a restart are re-admitted and resumed from their newest checkpoint (empty: no persistence)")
	checkpointEvery := flag.Uint64("checkpoint-every", 0,
		"default checkpoint cadence in fired simulation events for jobs that do not set their own (0: server default)")
	preemptGrace := flag.Duration("preempt-grace", 0,
		"how long a preempted job gets to checkpoint before it is cancelled outright (0: server default, 3s)")
	shedFraction := flag.Float64("shed-fraction", 0,
		"queue-fill fraction above which batch submissions are shed with 429 (0: server default 0.75; >=1 disables shedding)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "edmd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		JobTimeout:      *jobTimeout,
		StateDir:        *stateDir,
		CheckpointEvery: *checkpointEvery,
		PreemptGrace:    *preemptGrace,
		ShedFraction:    *shedFraction,
	})
	if n := srv.Recovered(); n > 0 {
		log.Printf("edmd: recovered %d interrupted job(s) from %s", n, *stateDir)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("edmd: listening on %s (queue %d)", *addr, *queue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("edmd: %v", err)
	case sig := <-sigc:
		log.Printf("edmd: %v — draining (deadline %v)", sig, *drainTimeout)
	}

	// Stop accepting connections first, then drain the job queue.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("edmd: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("edmd: drain deadline passed, in-flight jobs cancelled")
		} else {
			log.Printf("edmd: drain: %v", err)
		}
		os.Exit(1)
	}
	log.Printf("edmd: drained cleanly")
}
