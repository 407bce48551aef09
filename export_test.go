package llhd

import "llhd/internal/faultinject"

// This file is the test-only bridge of the fault-injection harness: the
// options below exist in test binaries only (the file is _test.go), so
// production builds have no way to install a fault hook — the build-time
// gating of internal/faultinject.

// WithFaultHook installs a deterministic fault-injection hook on the
// session's engine; the engine invokes it at every scheduling point (see
// faultinject.Point). Test-only.
func WithFaultHook(h func(faultinject.Point) error) SessionOption {
	return func(c *sessionConfig) { c.faultHook = h }
}

// WithGovernBatch overrides the governance polling granularity, so tests
// can observe batch-boundary behaviour (cancellation, quota checks)
// without simulating thousands of instants. Test-only.
func WithGovernBatch(n int) SessionOption {
	return func(c *sessionConfig) { c.governBatch = n }
}

// WithPhaseHook installs a probe that prepare calls with "frontend" before
// it runs the Moore frontend and with "compile" before it compiles for
// blaze (the design-cache path reports through CacheStats instead), so
// tests can count how often shared work happened. Test-only.
func WithPhaseHook(h func(phase string)) SessionOption {
	return func(c *sessionConfig) { c.phaseHook = h }
}
