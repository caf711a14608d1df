package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// TestWorkloadsTwoSeeds runs every workload briefly, untraced and traced,
// on two seeds: each run passes every output check, and both seeds report
// the same, declared, metric set.
func TestWorkloadsTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, traced and untraced")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var sets []string
			for _, seed := range []string{"1", "2"} {
				var out, stderr bytes.Buffer
				args := []string{"-workdir", t.TempDir(),
					"--workload", w.name, "--seed", seed, "--seconds", "0.5", "--trace", trace}
				code := run(args, &out, &stderr)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || code != 0 ||
					!rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("%s seed %s trace %s: exit %d, %v\n%s%s", w.name, seed, trace, code, err, out.String(), stderr.String())
					continue
				}
				var names []string
				for n := range rep.Metrics {
					names = append(names, n)
				}
				sort.Strings(names)
				sets = append(sets, strings.Join(names, " "))
			}
			if len(sets) == 2 && sets[0] != sets[1] {
				t.Errorf("%s trace %s: seeds report different metrics:\n%s\n%s", w.name, trace, sets[0], sets[1])
			}
		}
	}
}
