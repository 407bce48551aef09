// Command llhd-serve runs the streaming simulation server: an HTTP
// front end over the llhd runtime where clients POST a design (LLHD
// assembly or SystemVerilog) plus a stimulus configuration and receive
// an NDJSON stream of signal deltas followed by the final statistics
// and failure class. Blaze compilations go through the shared
// content-addressed design cache (optionally persisted with
// -cache-dir), so repeat submissions of one design skip the frontend
// and the compile entirely; every session runs under mandatory step,
// event, and wall-clock quotas with farm-style worker admission.
//
// Endpoints:
//
//	POST /v1/sim         run a design, respond with one JSON result
//	POST /v1/sim/stream  run a design, stream NDJSON deltas + result
//	GET  /v1/stats       cache and scheduling counters
//	GET  /v1/healthz     liveness
//
// Usage:
//
//	llhd-serve [-addr :8080] [-cache-dir DIR] [-cache-cap N] [-workers N]
//	           [-max-steps N] [-max-events N] [-timeout 30s]
package main

import (
	"flag"
	"log"
	"net/http"

	"llhd/internal/simserver"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "persist compiled-design artifacts in this directory")
	cacheCap := flag.Int("cache-cap", 0, "max resident compiled designs, LRU-evicted (0: unbounded)")
	workers := flag.Int("workers", 0, "max concurrently running sessions (0: GOMAXPROCS)")
	maxSteps := flag.Int("max-steps", 0, "per-session instant budget (0: server default)")
	maxEvents := flag.Int("max-events", 0, "per-session event budget (0: server default)")
	timeout := flag.Duration("timeout", 0, "per-session wall-clock budget (0: server default 30s)")
	flag.Parse()

	srv, err := simserver.New(simserver.Config{
		CacheDir:      *cacheDir,
		CacheCapacity: *cacheCap,
		Workers:       *workers,
		MaxSteps:      *maxSteps,
		MaxEvents:     *maxEvents,
		MaxWall:       *timeout,
	})
	if err != nil {
		log.Fatalf("llhd-serve: %v", err)
	}

	log.Printf("llhd-serve: listening on %s", *addr)
	log.Fatal(http.ListenAndServe(*addr, srv))
}
