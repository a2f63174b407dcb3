// Command eeld serves executable editing as a long-running daemon: the
// scheduling and instrumentation pipeline of cmd/eelprof behind an HTTP
// API, with request admission, per-tenant quotas, one shared scheduler
// and schedule cache per machine model, and a size-bounded on-disk spill
// so warm state survives restarts.
//
//	eeld -addr :8379                               # serve
//	eeld -spill /var/tmp/eeld.spill -spill-max 8388608
//	    spill the schedule cache on drain, restore it on boot
//	eeld -inflight 16 -queue 128 -tenant-quota 4   # admission policy
//
// Endpoints:
//
//	POST /v1/schedule   JSON {"machine": ..., "blocks": [[word...]...]}
//	                    -> {"machine": ..., "blocks": [[word...]...]}
//	POST /v1/edit       EELX image body; query op=reschedule|instrument,
//	                    machine=... -> edited EELX image
//	GET  /healthz       {"status":"ok"}, 503 while draining
//	GET  /metrics       Prometheus text (?format=json for the JSON export)
//	GET  /debug/flight  flight-recorder dump: one trace per JSONL line
//	                    (schemas/trace.schema.json); 404 unless -flight
//
// Errors are structured JSON ({"error": ...}) with matching status
// codes; every response is counted in eeld.requests_total{route,code}.
// Size flags that make no sense (-inflight, -queue or -editors below 1,
// or any negative size) are rejected at startup with exit status 2.
//
// Observability (-flight N retains the last N request traces plus up to
// 4N anomalous ones; -log path writes every trace as a JSON access-log
// line; either flag turns request tracing on):
//
//	eeld -flight 256 -flight-slow 250ms    # flight recorder, slow bar
//	eeld -log /var/log/eeld-access.jsonl   # structured access log
//
// On SIGTERM or SIGINT the daemon drains: health checks fail, new work
// is rejected, in-flight requests finish (bounded by -drain-timeout),
// and the schedule cache is spilled. The spill is keyed to the build's
// git revision — a daemon built from different sources starts cold
// rather than trusting stale schedules.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"eel/internal/daemon"
	"eel/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "eeld:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8379", "listen address")
		workers      = flag.Int("workers", 0, "scheduling worker pool size (0 = GOMAXPROCS)")
		cacheCap     = flag.Int("cache", 0, "schedule cache capacity in blocks (0 = default)")
		inflight     = flag.Int("inflight", 8, "requests processed concurrently")
		queueDepth   = flag.Int("queue", 64, "admitted requests allowed to wait for a slot")
		tenantQuota  = flag.Int("tenant-quota", 0, "per-tenant concurrent request cap (0 = unlimited)")
		editorCap    = flag.Int("editors", 32, "analyzed executables kept resident")
		spillPath    = flag.String("spill", "", "schedule-cache spill file (restore on boot, write on drain)")
		spillMax     = flag.Int("spill-max", 0, "spill file size bound in bytes (0 = unbounded)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		testHooks    = flag.Bool("testhooks", false, "enable test-only request hooks (delay_ms); never in production")
		flightN      = flag.Int("flight", 0, "flight recorder: retain the last N request traces (+4N anomalous); 0 = tracing off")
		flightSlow   = flag.Duration("flight-slow", 0, "latency past which a request is recorded as a slow anomaly (0 = never)")
		logPath      = flag.String("log", "", "structured JSON access log: one trace line per request")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: eeld [flags]")
		os.Exit(2)
	}
	if err := validateSizes(map[string]int{
		"inflight": *inflight, "queue": *queueDepth, "editors": *editorCap,
		"workers": *workers, "cache": *cacheCap, "tenant-quota": *tenantQuota,
		"spill-max": *spillMax, "flight": *flightN,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "eeld:", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	reg.StampRunManifest()
	reg.SetManifest("tool", "eeld")
	reg.SetManifest("workers", strconv.Itoa(*workers))

	var access *obs.JSONL
	if *logPath != "" {
		var err error
		if access, err = obs.CreateJSONL(*logPath); err != nil {
			return fmt.Errorf("access log: %w", err)
		}
	}

	s := daemon.New(daemon.Config{
		CacheCapacity:  *cacheCap,
		MaxInflight:    *inflight,
		QueueDepth:     *queueDepth,
		TenantQuota:    *tenantQuota,
		Workers:        *workers,
		EditorCap:      *editorCap,
		SpillPath:      *spillPath,
		SpillMaxBytes:  *spillMax,
		Fingerprint:    obs.GitRev(),
		Registry:       reg,
		AllowTestDelay: *testHooks,
		Flight:         obs.NewFlight(*flightN),
		AccessLog:      access,
		SlowRequest:    *flightSlow,
	})

	hs := &http.Server{Addr: *addr, Handler: s}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "eeld: listening on %s\n", *addr)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "eeld: %v: draining\n", sig)
	}

	// Drain: stop admitting, let in-flight requests finish, then spill.
	s.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "eeld: shutdown: %v (requests may have been cut off)\n", err)
	}
	n, err := s.Drain()
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	if *spillPath != "" {
		fmt.Fprintf(os.Stderr, "eeld: spilled %d cache entries to %s\n", n, *spillPath)
	}
	// Close the access log only after Drain: every in-flight request has
	// finished and written its line, so the file ends on a whole line.
	if access != nil {
		if err := access.Close(); err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		fmt.Fprintf(os.Stderr, "eeld: access log closed at %s\n", *logPath)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "eeld: drained cleanly")
	return nil
}

// minSizes is the smallest value each integer flag accepts: a zero
// -inflight, -queue or -editors cannot serve anything, and no size may
// be negative (0 is the documented default for the others).
var minSizes = []struct {
	flag string
	min  int
}{
	{"inflight", 1}, {"queue", 1}, {"editors", 1}, {"workers", 0},
	{"cache", 0}, {"tenant-quota", 0}, {"spill-max", 0}, {"flight", 0},
}

// validateSizes checks the integer flags' values (keyed by flag name)
// against minSizes, so that none is silently reinterpreted.
func validateSizes(v map[string]int) error {
	for _, f := range minSizes {
		if v[f.flag] < f.min {
			return fmt.Errorf("-%s %d: must be at least %d", f.flag, v[f.flag], f.min)
		}
	}
	return nil
}
