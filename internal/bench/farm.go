package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/moore"
)

// FarmBenchRow is one measured worker count of the session-farm
// throughput benchmark: how many complete elaborate+simulate sessions per
// second the farm sustains over the Table 2 designs.
type FarmBenchRow struct {
	Workers    int
	Sims       int
	Secs       float64
	SimsPerSec float64
}

// FarmJobs builds the farm workload: sweeps repetitions of every Table 2
// design on the interpreter (shared frozen module) and the compiled engine
// (shared CompiledDesign). All design preparation — Moore
// compilation, freezing, blaze compilation — happens here, outside any
// timed region, exactly once per design; the returned jobs are reusable
// across Farm.Run calls and worker counts.
func FarmJobs(sweeps int) ([]llhd.FarmJob, error) {
	var jobs []llhd.FarmJob
	for _, d := range designs.All() {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", d.Name, err)
		}
		cd, err := llhd.CompileBlaze(m, d.Top)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", d.Name, err)
		}
		for s := 0; s < sweeps; s++ {
			jobs = append(jobs,
				llhd.FarmJob{
					Name: d.Name + "/interp",
					Options: []llhd.SessionOption{
						llhd.FromModule(m), llhd.Top(d.Top), llhd.Backend(llhd.Interp)},
				},
				llhd.FarmJob{
					Name:    d.Name + "/blaze",
					Options: []llhd.SessionOption{llhd.FromCompiled(cd)},
				})
		}
	}
	return jobs, nil
}

// CheckFarmResults returns the first job error, or an error for any
// self-checking testbench that reported assertion failures.
func CheckFarmResults(results []llhd.FarmResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("bench: farm job %s: %w", r.Name, r.Err)
		}
		if r.Stats.AssertionFailures != 0 {
			return fmt.Errorf("bench: farm job %s: %d assertion failures", r.Name, r.Stats.AssertionFailures)
		}
	}
	return nil
}

// RunFarmBench measures farm throughput at each worker count over the
// same prepared workload.
func RunFarmBench(workerCounts []int, sweeps int) ([]FarmBenchRow, error) {
	jobs, err := FarmJobs(sweeps)
	if err != nil {
		return nil, err
	}
	var rows []FarmBenchRow
	for _, w := range workerCounts {
		farm := llhd.Farm{Workers: w}
		t0 := time.Now()
		results := farm.Run(context.Background(), jobs...)
		secs := time.Since(t0).Seconds()
		if err := CheckFarmResults(results); err != nil {
			return nil, err
		}
		rows = append(rows, FarmBenchRow{
			Workers:    w,
			Sims:       len(jobs),
			Secs:       secs,
			SimsPerSec: float64(len(jobs)) / secs,
		})
	}
	return rows, nil
}

// PrintFarmBench renders the farm throughput table.
func PrintFarmBench(w io.Writer, rows []FarmBenchRow) {
	fmt.Fprintf(w, "Session farm throughput (Table 2 designs, interp+blaze)\n")
	fmt.Fprintf(w, "%8s %8s %10s %12s %9s\n", "-j", "sims", "secs", "sims/sec", "speedup")
	base := 0.0
	for _, r := range rows {
		if base == 0 {
			base = r.SimsPerSec
		}
		fmt.Fprintf(w, "%8d %8d %10.3f %12.1f %8.2fx\n",
			r.Workers, r.Sims, r.Secs, r.SimsPerSec, r.SimsPerSec/base)
	}
}
