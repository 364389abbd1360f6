package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// golden.json holds the outputs recorded for every input seed at both
// sizes: per-runner digests of the rendered paper output, and the
// simulated outcomes of the fleet workloads. Regenerate it with
// -record only when a change alters outputs on purpose.
//
//go:embed golden.json
var goldenJSON []byte

// goldenEntry is what one workload produced for one input seed.
type goldenEntry struct {
	Digests map[string]string `json:"digests,omitempty"`
	Outcome *outcome          `json:"outcome,omitempty"`
}

var goldens = sync.OnceValue(func() map[string]*goldenEntry {
	m := map[string]*goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("cmpqosbench: golden.json: %v", err))
	}
	return m
})

func goldenKey(workload string, smoke bool, input int64) string {
	if smoke {
		workload += "-smoke"
	}
	return fmt.Sprintf("%s/%d", workload, input)
}

// lookupGolden returns the recorded outputs, or nil when none were
// recorded (which the gates count as a failure).
func lookupGolden(workload string, smoke bool, input int64) *goldenEntry {
	return goldens()[goldenKey(workload, smoke, input)]
}

// recordGoldens runs every simulation workload at both sizes for every
// input seed in a fresh child and writes the outputs to path.
func recordGoldens(path, self string) error {
	out := map[string]*goldenEntry{}
	for _, w := range []string{"paper", "fleet", "fleet-faults"} {
		for _, smoke := range []bool{true, false} {
			for input := int64(1); input <= NumInputSeeds; input++ {
				r := &run{workload: w, input: input, smoke: smoke, self: self}
				p, err := r.child()
				if err != nil {
					return err
				}
				out[goldenKey(w, smoke, input)] = &goldenEntry{Digests: p.out.Digests, Outcome: p.out.Outcome}
				r.logf("recorded input seed %d (smoke %v) in %.2fs", input, smoke, p.out.WallS)
			}
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
