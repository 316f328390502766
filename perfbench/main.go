// Command perfbench is the repository's end-to-end benchmark. One run drives
// one workload for a fixed amount of work and prints every end-to-end metric
// by name and unit; a traced run (-trace 1) prints the per-layer breakdown
// instead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1400, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root through the wrapper, which keeps
// every build artefact under .bench_build:
//
//	bash perfbench/run.sh --workload service-mem --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload sim --seed 1 --seconds 10 --spread 5
//
// The load is a closed loop from this one process: every client issues its
// next instance only after the previous one returned. The instance count is
// fixed by --seconds and the workload's nominal rate, never by a time window,
// and every input is drawn from --seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spread   int
	out      string
	commit   string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	fs.IntVar(&o.seconds, "seconds", 10, "nominal run length; sizes the fixed instance count")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.IntVar(&o.spread, "spread", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	fs.StringVar(&o.out, "out", ".bench_build", "directory the traced run writes its spans to")
	fs.StringVar(&o.commit, "commit", "unknown", "source revision recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || o.spread < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1, --spread non-negative")
		return 2
	}
	if o.spread > 0 {
		if err := spread(o, args); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(o, w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one named figure of a report.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one run found: the verdict counts, the metrics of the
// requested kind and the context a reader needs to interpret them.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	order     []string          // metric names in print order
	samples   map[string]string // what a metric was computed over
	notes     []string          // checks that failed, known defects, where spans went
	facts     map[string]string // workload-specific record fields (digest, instance count)
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]string{}, facts: map[string]string{}}
}

// set records a metric, keeping the first-set order for printing.
func (r *report) set(name string, value float64, unit string) {
	if _, seen := r.metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, "CHECK FAILED: "+fmt.Sprintf(format, args...))
}

// print writes the human-readable record and then, as the last line, the
// JSON result object.
func (r *report) print(o options, w *workload) error {
	per, _ := passSize(w.instances(o))
	env := map[string]any{
		"workload":   w.name,
		"seed":       o.seed,
		"trace":      o.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     o.commit,
		"clients":    w.clients(),
		"instances":  per * chunks, // the fixed work of one pass
	}
	for k, v := range r.facts {
		env[k] = v
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envLine)
	for _, name := range r.order {
		m := r.metrics[name]
		line := fmt.Sprintf("%-40s %14.6g %s", w.name+"/"+name, m.Value, m.Unit)
		if s, ok := r.samples[name]; ok {
			line += "  (" + s + ")"
		}
		fmt.Println(line)
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v, not a number", name, m.Value)
		}
	}
	out, err := json.Marshal(result{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// spanFile is where a traced run of the workload writes its spans.
func spanFile(o options, w *workload) string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
