// Command arcc-server runs the ARCC sweep service: a long-running HTTP
// front end over the exhibit registry that accepts exhibit and scenario
// jobs, executes them on a bounded worker pool (the same internal/mc
// sharding and pooled sim scratch the CLI uses, so results are
// bit-identical to arcc-experiments at any parallelism), caches identical
// results, and streams reports as JSON, CSV, or text.
//
// Usage:
//
//	arcc-server [-addr :8080] [-workers N] [-queue N] [-max-trials N]
//	            [-max-cache N] [-max-jobs N] [-max-job-seconds N]
//	            [-drain dur] [-state-dir dir] [-checkpoint-period dur]
//
// API:
//
//	GET    /v1/healthz          liveness + run counters
//	GET    /v1/exhibits         the registry: every runnable exhibit
//	POST   /v1/jobs             submit {exhibit|scenario, seed, trials,
//	                            parallel, quick, format}; 202 + job id
//	                            (201 when served from the result cache)
//	GET    /v1/jobs             all jobs, submission order
//	GET    /v1/jobs/{id}        status + live progress counts
//	GET    /v1/jobs/{id}/result the rendered report (?format= overrides);
//	                            202 while running, 410 after a cancel
//	DELETE /v1/jobs/{id}        cancel; the engine stops within one shard
//
// Examples:
//
//	# run Figure 3.1 in quick mode and fetch the JSON report
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"exhibit": "f3.1", "quick": true, "seed": 1}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -s localhost:8080/v1/jobs/job-1/result
//
//	# submit a declarative scenario (same schema as -scenario files)
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d "{\"scenario\": $(cat examples/custom-scenario/scenario.json),
//	          \"quick\": true, \"format\": \"csv\"}"
//
//	# cancel a running sweep
//	curl -s -X DELETE localhost:8080/v1/jobs/job-2
//
// A request that could reach a library panic path — an unknown exhibit,
// an invalid scenario, a negative trial count, a bad format — is
// rejected with HTTP 400 at the boundary, and so is a job whose trials
// (the request's override, else its scenario's own count) exceed
// -max-trials. Residual panics in handlers or jobs become error
// responses, never a process exit. Memory stays bounded over a long
// run: at most -max-cache reports are cached (oldest evicted) and at
// most -max-jobs finished jobs stay listed (oldest forgotten; their ids
// then answer 404). -max-job-seconds bounds one job's wall clock (a
// sweep that outlives it is canceled and marked failed). On
// SIGINT/SIGTERM the server stops accepting work and drains in-flight
// jobs for -drain before canceling them.
//
// With -state-dir the service is durable: accepted jobs land in an
// append-only fsync'd journal, completed reports persist as
// content-addressed files, and running jobs checkpoint their completed
// Monte Carlo work every -checkpoint-period (default 2s): each running
// engine job writes its folded shards as one blob, so a checkpoint stays
// small however long the job, a crash loses at most about one period of
// work per engine job the job has started, and a job shorter than the
// period writes no checkpoint at all. After a crash (even kill -9) or a drain
// timeout, the next start replays the journal, restores the result
// cache, and re-enqueues interrupted jobs from their latest checkpoint;
// because the engine merges shards deterministically, the resumed
// report is byte-identical to an uninterrupted run.
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

	"arcc/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "arcc-server: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = all CPUs)")
	queue := flag.Int("queue", server.DefaultQueueDepth, "max queued jobs before submissions get 503")
	maxTrials := flag.Int("max-trials", server.DefaultMaxTrials, "per-job Monte Carlo trial cap")
	maxCache := flag.Int("max-cache", server.DefaultMaxCachedResults, "result-cache bound (oldest entries evicted)")
	maxJobs := flag.Int("max-jobs", server.DefaultMaxFinishedJobs, "finished jobs retained before the oldest are forgotten")
	maxJobSeconds := flag.Int("max-job-seconds", 0, "per-job wall-clock cap in seconds (0 = unlimited)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline for in-flight jobs")
	stateDir := flag.String("state-dir", "", "directory for durable state (journal, results, checkpoints); empty = in-memory only")
	ckPeriod := flag.Duration("checkpoint-period", server.DefaultCheckpointPeriod, "checkpoint each running engine job this often; a crash loses at most about this much of its work (needs -state-dir)")
	flag.Parse()

	svc, err := server.New(server.Options{
		Workers:          *workers,
		QueueDepth:       *queue,
		MaxTrials:        *maxTrials,
		MaxCachedResults: *maxCache,
		MaxFinishedJobs:  *maxJobs,
		MaxJobDuration:   time.Duration(*maxJobSeconds) * time.Second,
		StateDir:         *stateDir,
		CheckpointPeriod: *ckPeriod,
	})
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("arcc-server listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("arcc-server shutting down (drain %s)", *drain)
	deadline, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the listener first so no new jobs arrive, then drain the pool;
	// jobs still running at the deadline are canceled (the engine stops
	// within one shard) before the workers are awaited.
	if err := httpSrv.Shutdown(deadline); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Shutdown(deadline); err != nil {
		log.Printf("drain deadline hit, jobs canceled: %v", err)
	}
	return nil
}
