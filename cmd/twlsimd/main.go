// Command twlsimd is the sharded simulation daemon: an HTTP service that
// accepts experiment-grid jobs (scheme × attack/benchmark × seed), runs them
// in submission order on a preemptible worker pool, streams per-cell
// progress as JSONL, and dedupes identical cells through a
// content-addressed on-disk result cache. Simulations are deterministic, so
// a cached cell is the cell.
//
//	twlsimd -data /var/lib/twlsimd &
//	curl -d '{"schemes":["TWL_swp","BWL"],"attacks":["repeat","scan"]}' localhost:8080/jobs
//	curl localhost:8080/jobs/job-0001-deadbeef
//	curl localhost:8080/metrics
//
// SIGINT/SIGTERM drain gracefully: in-flight cells stop at their next
// checkpoint (writing a final one), and a restarted daemon resumes every
// incomplete cell from its checkpoint to a bit-identical result. A SIGKILL
// loses at most one checkpoint interval.
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

	"twl/internal/cliutil"
	"twl/internal/serve"
)

// Connection limits: a client gets readHeaderTimeout to send its request
// headers and an idle keep-alive connection closes after idleTimeout, so a
// slow or stalled client cannot hold a connection open forever. Bodies and
// responses are not time-limited — a job's trace stream may be long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8080", "listen address")
		dataDir   = flag.String("data", "", "service state directory (jobs, result cache, checkpoints); required")
		workers   = flag.Int("workers", 0, "cells of a job simulated at once (0: GOMAXPROCS)")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "per-cell checkpoint cadence in demand writes (0: simulator default)")
	)
	flag.Parse()

	cliutil.Check("twlsimd", cliutil.NoArgs(flag.Args()))
	cliutil.Check("twlsimd", cliutil.Required("-data", *dataDir))
	cliutil.Check("twlsimd", cliutil.NonNegativeInt("-workers", *workers))

	srv, err := serve.New(serve.Config{
		DataDir:         *dataDir,
		Workers:         *workers,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "twlsimd:", err)
		os.Exit(1)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("twlsimd: serving on http://%s (state in %s)\n", *addr, *dataDir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("twlsimd: %v, draining\n", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "twlsimd:", err)
		_ = srv.Close()
		os.Exit(1)
	}

	// Stop accepting requests, then drain the workers (each in-flight cell
	// stops at its next checkpoint and is persisted as pending).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "twlsimd: shutdown:", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "twlsimd:", err)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "twlsimd:", err)
		os.Exit(1)
	}
	fmt.Println("twlsimd: drained")
}
