// Command llhd-bench regenerates the paper's evaluation tables (§6) from
// this reproduction: Table 2 (simulation performance across the reference
// interpreter, the compiled simulator, and the AST-level commercial
// substitute), Table 3 (IR feature comparison), and Table 4 (size
// efficiency of text, bitcode and in-memory representations).
//
// Usage:
//
//	llhd-bench            # all tables
//	llhd-bench -table 2   # one table
//	llhd-bench -farm      # session-farm throughput (sims/sec at -j 1/4/8)
//
// The perf record is the repository benchmark (go run ./benchmark); these
// printers regenerate the paper's tables for reading, not for comparing.
package main

import (
	"flag"
	"fmt"
	"os"

	"llhd/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "table to regenerate (2, 3, or 4); 0 = all")
	farm := flag.Bool("farm", false, "benchmark concurrent session-farm throughput (sims/sec at -j 1/4/8) instead of the tables")
	sweeps := flag.Int("sweeps", 5, "farm benchmark: repetitions of the Table 2 design sweep per worker count")
	flag.Parse()

	if *farm {
		rows, err := bench.RunFarmBench([]int{1, 4, 8}, *sweeps)
		if err != nil {
			fatal(err)
		}
		bench.PrintFarmBench(os.Stdout, rows)
		return
	}

	if *table == 0 || *table == 2 {
		rows, err := bench.RunTable2()
		if err != nil {
			fatal(err)
		}
		bench.PrintTable2(os.Stdout, rows)
		fmt.Println()
	}
	if *table == 0 || *table == 3 {
		bench.PrintTable3(os.Stdout, bench.Table3())
		fmt.Println()
	}
	if *table == 0 || *table == 4 {
		rows, err := bench.RunTable4()
		if err != nil {
			fatal(err)
		}
		bench.PrintTable4(os.Stdout, rows)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llhd-bench:", err)
	os.Exit(1)
}
