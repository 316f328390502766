package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spread runs the workload o.spread times, each in a fresh process with the
// seed o.seed+k, and prints every metric's median, quartiles and range, and
// the quartile distance as a share of the median: the figure a metric's
// bound in BENCHMARK.json must stay above.
func spread(o options, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	base := withoutFlags(args, "spread", "seed")
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < o.spread; k++ {
		seed := o.seed + uint64(k)
		cmd := exec.Command(self, append(base, "--seed", strconv.FormatUint(seed, 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var env struct {
			Steal string `json:"steal_frac"`
		}
		if strings.HasPrefix(lines[0], "env ") {
			if k == 0 {
				fmt.Println(lines[0])
			}
			_ = json.Unmarshal([]byte(strings.TrimPrefix(lines[0], "env ")), &env) // the steal figure is informational
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d steal_frac=%s", seed, res.Correct, res.Attempted, res.Failed, env.Steal)
		for _, name := range []string{"instances_per_s", "latency_p95_ms"} {
			if m, ok := res.Metrics[name]; ok {
				fmt.Printf(" %s=%.4g", name, m.Value)
			}
		}
		fmt.Println()
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	fmt.Printf("%-36s %12s %12s %12s %12s %12s %9s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, name := range sortedKeys(values) {
		v := sortedCopy(values[name])
		q1, med, q3 := quartiles(v)
		rel := 0.0
		if med != 0 {
			rel = (q3 - q1) / med
		}
		fmt.Printf("%-36s %12.6g %12.6g %12.6g %12.6g %12.6g %8.2f%% %s\n",
			name, med, q1, q3, v[0], v[len(v)-1], 100*rel, units[name])
	}
	return nil
}

// quartiles returns the three cut points of ascending values by the same
// exclusive method as Python's statistics.quantiles(values, n=4).
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	if n < 2 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// withoutFlags drops the named flags (with their values) from args.
func withoutFlags(args []string, names ...string) []string {
	drop := map[string]bool{}
	for _, n := range names {
		drop["-"+n], drop["--"+n] = true, true
	}
	var kept []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, _, hasValue := strings.Cut(a, "=")
		if drop[name] {
			if !hasValue {
				i++
			}
			continue
		}
		kept = append(kept, a)
	}
	return kept
}
