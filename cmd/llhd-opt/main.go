// Command llhd-opt runs LLHD transformation passes on a module, mirroring
// LLVM's opt. By default it runs the full behavioural-to-structural
// lowering pipeline (§4 of the paper); -passes replays an explicit pass
// list from the pass registry — including the pipeline line printed by a
// llhd-fuzz -pipeline failure report, verbatim.
//
// Usage:
//
//	llhd-opt [-passes cf,dce,...] [-verify-each] [-stats] [-print-pipeline] [-verify level] design.llhd
//
// -stats prints one row per pass application to stderr — wall time, the
// changed flag, instruction and block counts before and after — and leaves
// stdout to the assembly.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"llhd"
	"llhd/internal/ir"
	"llhd/internal/pass"
)

// parsePasses builds a pipeline from a comma-separated pass list through
// the pass registry; spellings are the registry's canonical names and
// aliases, and an unknown name errors with the full legal list.
func parsePasses(list string) (*pass.Pipeline, error) {
	var names []string
	for _, pn := range strings.Split(list, ",") {
		if pn = strings.TrimSpace(pn); pn != "" {
			names = append(names, pn)
		}
	}
	return pass.FromNames(names)
}

func main() {
	passList := flag.String("passes", "", "comma-separated pass list (default: full lowering pipeline)")
	printPipeline := flag.Bool("print-pipeline", false, "print the default pipeline and exit")
	verifyEach := flag.Bool("verify-each", false, "run ir.Verify after every pass, naming the offending pass on failure")
	verify := flag.String("verify", "", "verify the result at a level: behavioural, structural, netlist")
	stats := flag.Bool("stats", false, "print per-pass statistics (time, changed, instruction and block counts) to stderr")
	flag.Parse()

	if *printPipeline {
		fmt.Println(strings.Join(pass.LoweringPipeline().Names(), " -> "))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: llhd-opt [-passes list] [-verify-each] [-stats] [-verify level] design.llhd")
		os.Exit(2)
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	m, err := llhd.ParseAssembly(name, string(data))
	if err != nil {
		fatal(err)
	}

	pipeline := pass.LoweringPipeline()
	if *passList != "" {
		if pipeline, err = parsePasses(*passList); err != nil {
			fatal(err)
		}
	}
	pipeline.VerifyEach = *verifyEach
	pipeline.CollectStats = *stats
	if *passList == "" {
		err = pipeline.RunFixpoint(m)
	} else {
		_, err = pipeline.Run(m)
	}
	if *stats {
		pipeline.WriteStats(os.Stderr)
	}
	if err != nil {
		fatal(err)
	}

	if *verify != "" {
		var lvl ir.Level
		switch *verify {
		case "behavioural", "behavioral":
			lvl = ir.Behavioural
		case "structural":
			lvl = ir.Structural
		case "netlist":
			lvl = ir.Netlist
		default:
			fatal(fmt.Errorf("unknown level %q", *verify))
		}
		if err := llhd.Verify(m, lvl); err != nil {
			fatal(err)
		}
	}
	fmt.Print(llhd.AssemblyString(m))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llhd-opt:", err)
	os.Exit(1)
}
