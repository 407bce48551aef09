package fuzz

import (
	"fmt"
	"math/rand"
	"strings"

	"llhd"
	"llhd/internal/ir"
	"llhd/internal/pass"
)

// Pipeline fuzzing mode: instead of the one fixed llhd.Lower ordering,
// each seed draws a random sequence of §4 passes from the pass registry
// and checks the design after *every* pass application — ir.Verify must
// stay green (verify-each) and the cross-engine trace oracle must agree
// with the unoptimized reference. Checking every prefix rather than only
// the full pipeline is what makes the bisection automatic and exact: a
// miscompile introduced by pass k can be masked by pass k+1 (DCE deleting
// the mis-folded value, TCFE merging the divergent branch away), so the
// shortest failing prefix — not a post-hoc bisection of a full-pipeline
// failure — is the ground truth for "first divergent pass".
//
// Determinism contract: the pipeline drawn for a seed is a pure function
// of the seed (PipelineOf), the design is the plain fuzzer's Generate for
// the same seed, and every reported failure is one line of deterministic
// text carrying (seed, pipeline prefix, first divergent pass).

// pipelineSalt decorrelates the pipeline draw from the design draw: both
// derive from the same user-visible seed, but through different streams,
// so pipeline shape and design shape vary independently across seeds.
const pipelineSalt = 0x9E3779B97F4A7C15

// PipelineOf returns the pass pipeline fuzzed for a seed: a deterministic
// random sequence of 3..12 canonical pass names drawn uniformly from the
// pass registry. Repeats are intentional (re-running a pass after another
// reshaped the IR is where interaction bugs live), and any ordering is
// legal by the registry contract: every pass no-ops on unit kinds and
// shapes it does not recognise.
func PipelineOf(seed int64) []string {
	rng := rand.New(rand.NewSource(int64(uint64(seed)*pipelineSalt + 0xDA3E39CB94B95BDB)))
	names := pass.Names()
	out := make([]string, 3+rng.Intn(10))
	for i := range out {
		out[i] = names[rng.Intn(len(names))]
	}
	return out
}

// PipelineLower returns a lowering function that replays the named passes
// once, in order, with verify-each on — an ir.Verify break between passes
// fails naming the offending pass. This is the replay used by the pipeline
// fuzzer per prefix, by corpus entries carrying a "; pipeline:" directive,
// and (spelled -passes) by cmd/llhd-opt.
func PipelineLower(names []string) func(*llhd.Module) error {
	return func(m *llhd.Module) error {
		pl, err := pass.FromNames(names)
		if err != nil {
			return err
		}
		pl.VerifyEach = true
		_, err = pl.Run(m)
		return err
	}
}

// CheckGeneratedPipeline generates the design for (seed, budget), draws
// the seed's pipeline, and runs the differential oracle once per pipeline
// prefix — after every pass application the design must verify and agree
// with the unoptimized reference across all engine legs. The returned
// Failure (if any) carries the shortest failing prefix in
// Failure.Pipeline; its last entry is the first divergent pass. This is
// the loop body of llhd-fuzz -pipeline and the FuzzPassPipeline harness.
func CheckGeneratedPipeline(seed int64, budget int, opt Options) *Failure {
	names := PipelineOf(seed)
	mkLower := opt.PipelineLower
	if mkLower == nil {
		mkLower = PipelineLower
	}
	mk := func() (*ir.Module, error) {
		return Generate(Config{Seed: seed, Budget: budget}), nil
	}
	for k := 1; k <= len(names); k++ {
		prefix := names[:k:k]
		o := opt
		o.Lower = mkLower(prefix)
		o.PipelineLower = nil
		f := CheckModule(mk, "top", o)
		if f == nil {
			continue
		}
		f.Pipeline = prefix
		f.Reason = fmt.Sprintf("seed %d budget %d: pipeline %s: first divergent pass %q (application %d of %d%s): %s",
			seed, budget, strings.Join(names, ","), prefix[k-1], k, len(names), lastPassDelta(seed, budget, prefix), f.Reason)
		return f
	}
	return nil
}

// lastPassDelta replays prefix on the seed's design with pipeline
// statistics on and renders what its last pass did to the instruction and
// block counts, for the failure line: ", insts 120 -> 98, blocks 7 -> 5".
// Counts only — the line stays byte-reproducible. It is empty when the
// replay does not get as far as the last pass.
func lastPassDelta(seed int64, budget int, prefix []string) (delta string) {
	defer func() {
		if recover() != nil {
			delta = ""
		}
	}()
	pl, err := pass.FromNames(prefix)
	if err != nil {
		return ""
	}
	pl.CollectStats = true
	_, _ = pl.Run(Generate(Config{Seed: seed, Budget: budget})) // a failing pass still leaves its row
	if len(pl.Stats) < len(prefix) {
		return ""
	}
	return ", " + pl.Stats[len(prefix)-1].Delta()
}

// PipelineDirectiveLine renders the corpus header directive that makes a
// repro carry its pipeline: CheckText replays the named passes instead of
// llhd.Lower when it sees this line.
func PipelineDirectiveLine(names []string) string {
	return fmt.Sprintf("; pipeline: %s\n", strings.Join(names, ","))
}

// PipelineDirective scans the leading comment lines of corpus text for a
// "; pipeline: a,b,c" directive and returns the pass names, or nil.
func PipelineDirective(text string) []string {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, ";") {
			return nil // directives live in the leading comment header
		}
		rest, ok := strings.CutPrefix(line, "; pipeline:")
		if !ok {
			continue
		}
		var names []string
		for _, n := range strings.Split(rest, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		return names
	}
	return nil
}
