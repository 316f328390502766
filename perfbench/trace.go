package main

import "fmt"

// perLayer lists every per-layer metric a traced run prints, with its unit.
// BENCHMARK.json names the same set. A workload whose path does not cross a
// layer (sim has no transport, the Service runs no Engine.Run) prints that
// layer's metrics as 0.
var perLayer = map[string]string{
	"core.run_ms":                       "ms",
	"core.self_ms":                      "ms",
	"core.rounds_per_instance":          "count",
	"mobile.directives_ms_per_instance": "ms",
	"mobile.share":                      "frac",
	"msr.apply_ms_per_instance":         "ms",
	"msr.applies_per_instance":          "count",
	"cluster.run_ms":                    "ms",
	"cluster.round_ms":                  "ms",
	"cluster.omissions_per_instance":    "count",
	"cluster.stale_rounds_per_instance": "count",
	"cluster.stall_events_per_instance": "count",
	"transport.encode_us":               "us",
	"transport.decode_us":               "us",
	"transport.allocs_per_frame":        "count",
	"transport.frames_per_write":        "count",
	"transport.writes_per_instance":     "count",
	"transport.rejected_per_instance":   "count",
	"service.submit_wait_ms":            "ms",
	"service.overhead_ms":               "ms",
	"service.frames_per_flush":          "count",
	"service.unrouted_per_instance":     "count",
	"service.stale_per_instance":        "count",
	"service.inbox_drops_per_instance":  "count",
	"service.useful_frame_frac":         "frac",
	"runtime.allocs_per_instance":       "count",
	"runtime.gc_per_1k_instances":       "count",
	"trace.overhead_frac":               "frac",
}

// finishTrace completes a traced run's report: the verdict counts of the
// traced pass, the tracing overhead against the untraced pass, zeros for
// the layers the workload does not cross, and the spans written out.
func finishTrace(r *report, w *workload, o options, spans []span, untraced, traced phase) {
	r.attempted, r.failed = traced.attempted, traced.attempted-traced.ok
	checkVerdicts(r, w, traced)
	traced.passFacts(r)
	base, _ := untraced.latencyMS(0.5)
	tr, _ := traced.latencyMS(0.5)
	r.set("trace.overhead_frac", (tr-base)/base, "frac")
	r.samples["trace.overhead_frac"] = "latency_p50_ms, traced vs untraced pass"
	var off []string
	for _, name := range sortedKeys(perLayer) {
		if _, ok := r.metrics[name]; !ok {
			r.set(name, 0, perLayer[name])
			off = append(off, name)
		}
	}
	for name := range r.metrics {
		if _, ok := perLayer[name]; !ok {
			panic(fmt.Sprintf("perfbench: traced metric %s missing from perLayer", name))
		}
	}
	if len(off) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("off this workload's path, printed as 0: %v", off))
	}
	path := spanFile(o, w)
	if err := writeSpans(path, spans); err != nil {
		r.fail("writing spans: %v", err)
		return
	}
	r.notes = append(r.notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
}
