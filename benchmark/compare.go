package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
)

// metricDef is one end-to-end metric: BENCHMARK.json lists the same
// names, units, directions and bounds (benchmark_test.go checks that).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // share of the base's median it may worsen by
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"blaze_cycles_per_s", "cycles/s", "higher", 0.25},
	{"interp_cycles_per_s", "cycles/s", "higher", 0.25},
	{"svsim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"blaze_vcd_cycles_per_s", "cycles/s", "higher", 0.25},
	{"blaze_lowered_cycles_per_s", "cycles/s", "higher", 0.25},
	{"cold_start_ms", "ms", "lower", 0.25},
	{"lower_ms", "ms", "lower", 0.25},
	{"serve_sessions_per_s", "1/s", "higher", 0.25},
	{"serve_warm_ms", "ms", "lower", 0.25},
	{"serve_cold_ms", "ms", "lower", 0.25},
	{"serve_ttfd_ms", "ms", "lower", 0.25},
	{"serve_stream_mb_per_s", "MB/s", "higher", 0.25},
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the spread of a metric over runs is defined; it needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		if j < 1 {
			j, delta = 1, 0
		} else if j > len(s)-1 {
			j, delta = len(s)-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; 0 for
// fewer than two values, where it cannot be known.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// valuesOf collects a metric's values over a set's untraced runs of one
// workload.
func (set *resultSet) valuesOf(workload, name string) []float64 {
	var xs []float64
	for _, r := range set.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// countsOf returns the exact counts of a workload's runs, by seed.
func (set *resultSet) countsOf(workload string) map[int64]map[string]int {
	out := map[int64]map[string]int{}
	for _, r := range set.Runs {
		if r.Workload == workload {
			out[r.Seed] = r.Counts
		}
	}
	return out
}

// compareSets prints, for every workload and end-to-end metric, the
// base's median, the other set's, their ratio, the bound and a verdict:
// worse (beyond the bound), unresolved (either set's own run-to-run
// spread is wider than the bound, so the comparison cannot tell) or ok.
// It fails if any pairing is worse.
func compareSets(basePath, otherPath string) error {
	base, err := readSet(basePath)
	if err != nil {
		return err
	}
	other, err := readSet(otherPath)
	if err != nil {
		return err
	}
	fmt.Printf("base  %s: %d runs, commit %s, %s, nproc %d\n", basePath, len(base.Runs), base.Host.Commit, base.Host.Go, base.Host.NProc)
	fmt.Printf("other %s: %d runs, commit %s, %s, nproc %d\n", otherPath, len(other.Runs), other.Host.Commit, other.Host.Go, other.Host.NProc)
	worse := 0
	for _, w := range workloads {
		fmt.Printf("\n%s\n  %-28s %14s %8s %14s %8s %9s %6s  %s\n", w.name, "metric", "base median", "spread",
			"other median", "spread", "other/base", "bound", "verdict")
		for _, def := range endToEndMetrics {
			a, b := base.valuesOf(w.name, def.name), other.valuesOf(w.name, def.name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("  %-28s missing (%d and %d runs)\n", def.name, len(a), len(b))
				continue
			}
			ma, mb, sa, sb := median(a), median(b), spread(a), spread(b)
			verdict := "ok"
			switch {
			case def.better == "lower" && mb > ma*(1+def.bound), def.better == "higher" && mb < ma*(1-def.bound):
				verdict = "worse"
				worse++
			case sa > def.bound || sb > def.bound:
				verdict = "unresolved"
			}
			fmt.Printf("  %-28s %14.4f %7.2f%% %14.4f %7.2f%% %9.4f %5.0f%%  %s (%s, %s better, n=%d/%d)\n", def.name,
				ma, 100*sa, mb, 100*sb, mb/ma, 100*def.bound, verdict, def.unit, def.better, len(a), len(b))
		}
		ca, cb := base.countsOf(w.name), other.countsOf(w.name)
		same := "identical"
		for seed, c := range ca {
			if o, ok := cb[seed]; ok && !reflect.DeepEqual(c, o) {
				same = fmt.Sprintf("DIFFER at seed %d: %v vs %v", seed, c, o)
			}
		}
		fmt.Printf("  exact counts on the seeds both sets ran: %s\n", same)
	}
	if worse > 0 {
		return fmt.Errorf("%d workload/metric pairings are worse than the base by more than their bound", worse)
	}
	return nil
}
