package main

import (
	"runtime"
	"time"

	"mbfaa"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// rate is the nominal instances per second on a 2-vCPU runner. It only
	// sizes the fixed work (rate × --seconds instances); nothing is measured
	// against a time window.
	rate int
	// service is the Service shape of a Service workload; nil for sim.
	service *mbfaa.ServiceSpec
	// defect names a known program defect whose wrong verdicts the workload
	// reports in ok_frac instead of failing the run on them.
	defect string
}

// clients is the closed loop's caller count: one for the simulation kernel
// (its vote loop already fans out over every CPU at n=256), two for the
// Service, capped at the CPU count.
func (w *workload) clients() int {
	if w.service == nil {
		return 1
	}
	return min(2, runtime.NumCPU())
}

// instances is the fixed instance count of one measured pass. A traced run
// makes two passes (untraced, then traced) of half as many instances each.
func (w *workload) instances(o options) int {
	if o.trace {
		return max(w.rate*o.seconds/2, chunks)
	}
	return max(w.rate*o.seconds, chunks)
}

// run executes the workload: timed set-ups and one measured pass for the
// end-to-end metrics, or an untraced and a traced pass for the per-layer
// ones.
func (w *workload) run(o options) (*report, error) {
	if w.service == nil {
		return runSim(w, o)
	}
	return runService(w, o)
}

// serviceSpec is the Service shape every Service workload starts from: the
// paper's M1 model with f agents moving every round (the rotating schedule),
// ε = 1e-3 over unit-range inputs. The round timeout only fires on missing
// frames; no workload injects chaos, which would pin every round to it.
func serviceSpec(n, f int) mbfaa.ServiceSpec {
	return mbfaa.ServiceSpec{
		Model:        mbfaa.M1,
		N:            n,
		F:            f,
		Epsilon:      1e-3,
		InputRange:   1,
		RoundTimeout: time.Second,
		RunHorizon:   time.Minute,
		ScheduleName: "rotating",
	}
}

// workloads lists every workload perfbench can run. BENCHMARK.json names all
// but service-pipelined: its wrong verdicts (the defect below) vary from run
// to run with scheduling, while a benchmark workload must be one on which no
// operation fails. It stays here so the defect can be measured by hand, and
// rejoins the benchmark once pipelined rounds decide correctly.
var workloads = func() []*workload {
	mem := serviceSpec(16, 3)
	tcp := serviceSpec(6, 1)
	tcp.Transport = "tcp"
	pipe := serviceSpec(16, 3)
	pipe.PipelineDepth = 2
	pipe.FixedRounds = 20
	return []*workload{
		{name: "sim", rate: 160},
		{name: "service-mem", rate: 520, service: &mem},
		{name: "service-tcp", rate: 260, service: &tcp},
		{name: "service-pipelined", rate: 360, service: &pipe,
			defect: "pipelined rounds (PipelineDepth 2) decide some instances unconverged or invalid; ok_frac reports the measured share, the run does not fail on it"},
	}
}()

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
