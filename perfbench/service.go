package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"mbfaa"
)

// serviceWarmup is how many instances run on a fresh Service before timing
// starts, so the node-set pool, the route tables and (on TCP) the lazily
// dialled mesh are in place; their cost belongs to setup_s.
const serviceWarmup = 64

// serviceInput draws instance i's unit-range input vector from the seed.
// Inputs are drawn as the clients reach them, so the heap holds the
// program's state rather than the input list.
func serviceInput(seed uint64, n, i int) []float64 {
	rng := rand.New(rand.NewPCG(seed, uint64(i)))
	in := make([]float64, n)
	for j := range in {
		in[j] = rng.Float64()
	}
	return in
}

// instanceRecord is what the traced pass keeps of one instance.
type instanceRecord struct {
	start, submit, total time.Duration // start since the pass began; Submit call; Submit→Await
	res                  *mbfaa.ClusterResult
}

// submitAwait runs one instance on svc: Submit, then Await its result.
func submitAwait(svc *mbfaa.Service, id uint32, inputs []float64, rec *instanceRecord) outcome {
	ctx := context.Background()
	t0 := time.Now()
	h, err := svc.Submit(ctx, id, inputs)
	if err != nil {
		return outcome{latency: time.Since(t0), err: err}
	}
	t1 := time.Now()
	res, err := svc.Await(ctx, h)
	o := outcome{latency: time.Since(t0), err: err}
	if err == nil {
		o.ok = res.Converged && res.Valid()
	}
	if rec != nil {
		rec.submit, rec.total, rec.res = t1.Sub(t0), o.latency, res
	}
	return o
}

// serve opens a Service on spec and runs the warm-up instances on it.
func serve(spec mbfaa.ServiceSpec, seed uint64, clients int) (*mbfaa.Service, error) {
	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < serviceWarmup && errs[c] == nil; i += clients {
				errs[c] = submitAwait(svc, uint32(i+1), serviceInput(seed, spec.N, i), nil).err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		_ = svc.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return svc, nil
}

// runService is a Service workload: the closed loop's clients each Submit
// an instance and Await it before the next.
func runService(w *workload, o options) (*report, error) {
	r := newReport()
	r.correct = true
	spec := *w.service
	total := w.instances(o)
	clients := w.clients()

	var setup []sample
	if !o.trace {
		var err error
		setup, err = timeSetups(func(k int) (time.Duration, error) {
			t0 := time.Now()
			svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
			if err != nil {
				return 0, err
			}
			out := submitAwait(svc, 1, serviceInput(o.seed, spec.N, k), nil)
			d := time.Since(t0)
			if err := svc.Close(); err != nil {
				return 0, fmt.Errorf("close: %w", err)
			}
			if out.err != nil || (!out.ok && w.defect == "") {
				r.fail("set-up instance %d: err=%v ok=%v", k, out.err, out.ok)
			}
			return d, nil
		})
		if err != nil {
			return nil, err
		}
	}

	svc, err := serve(spec, o.seed, clients)
	if err != nil {
		return nil, err
	}
	p := closedLoop(total, clients, func(i int) outcome {
		return submitAwait(svc, uint32(serviceWarmup+i+1), serviceInput(o.seed, spec.N, i), nil)
	})
	if err := svc.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	checkVerdicts(r, w, p)
	if !o.trace {
		p.endToEnd(r, setup)
		return r, nil
	}
	return r, traceService(r, w, o, p)
}

// traceService runs the instance list again on a fresh Service whose vote
// function is decorated, timing every Submit and Await, and records the
// per-layer breakdown from the spans and the counters the Service reports.
func traceService(r *report, w *workload, o options, untraced phase) error {
	spec := *w.service
	var vote busy
	spec.Algorithm = &timedAlgorithm{inner: mbfaa.FTM, b: &vote}
	svc, err := serve(spec, o.seed, w.clients())
	if err != nil {
		return err
	}
	_, most := passSize(untraced.base)
	recs := make([]instanceRecord, most)
	before := svc.Stats()
	vote.ns.Store(0)
	vote.calls.Store(0)
	begin := time.Now()
	p := closedLoop(untraced.base, w.clients(), func(i int) outcome {
		recs[i].start = time.Since(begin)
		return submitAwait(svc, uint32(serviceWarmup+i+1), serviceInput(o.seed, spec.N, i), &recs[i])
	})
	after := svc.Stats()
	if err := svc.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}

	var spans []span
	var clusterMS, roundMS, overheadMS, omissions, stale, stalls, rejected, wasted float64
	totals := make([]float64, 0, p.attempted)
	for i, rec := range recs[:p.attempted] {
		id := uint32(serviceWarmup + i + 1)
		totals = append(totals, float64(rec.total)/float64(time.Millisecond))
		spans = append(spans,
			span{Instance: id, Name: "service.instance", StartUS: us(rec.start), DurUS: us(rec.total), Calls: 1},
			span{Instance: id, Name: "service.submit", Parent: "service.instance", StartUS: us(rec.start), DurUS: us(rec.submit), Calls: 1},
			span{Instance: id, Name: "service.await", Parent: "service.instance", StartUS: us(rec.start + rec.submit), DurUS: us(rec.total - rec.submit), Calls: 1},
		)
		if rec.res == nil {
			continue
		}
		el := rec.res.Elapsed
		spans = append(spans, span{Instance: id, Name: "cluster.run", Parent: "service.await", StartUS: us(rec.start + rec.submit), DurUS: us(el), Calls: 1})
		clusterMS += float64(el) / float64(time.Millisecond)
		if rec.res.Rounds > 0 {
			roundMS += float64(el) / float64(time.Millisecond) / float64(rec.res.Rounds)
		}
		overheadMS += float64(rec.total-el) / float64(time.Millisecond)
		for _, ns := range rec.res.Stats {
			omissions += float64(ns.Omissions)
			stale += float64(ns.StaleRounds + ns.Late)
			stalls += float64(ns.StallEvents)
			rejected += float64(ns.Rejected)
			wasted += float64(ns.Duplicates + ns.Late + ns.StaleRounds + ns.Rejected)
		}
	}
	k := float64(p.attempted)
	d := func(a, b int64) float64 { return float64(a - b) }
	frames := d(after.Frames, before.Frames)
	r.set("cluster.run_ms", clusterMS/k, "ms")
	r.set("cluster.round_ms", roundMS/k, "ms")
	r.set("cluster.omissions_per_instance", omissions/k, "count")
	r.set("cluster.stale_rounds_per_instance", stale/k, "count")
	r.set("cluster.stall_events_per_instance", stalls/k, "count")
	r.set("msr.apply_ms_per_instance", vote.ms()/k, "ms")
	r.set("msr.applies_per_instance", float64(vote.calls.Load())/k, "count")
	r.set("service.submit_wait_ms", percentile(sortedCopy(totals), 0.95), "ms")
	r.samples["service.submit_wait_ms"] = fmt.Sprintf("p95 of %d instances", len(totals))
	r.set("service.overhead_ms", overheadMS/k, "ms")
	r.set("service.frames_per_flush", frames/d(after.Flushes, before.Flushes), "count")
	unrouted, staleFrames, drops := d(after.Unrouted, before.Unrouted), d(after.Stale, before.Stale), d(after.InboxDrops, before.InboxDrops)
	r.set("service.unrouted_per_instance", unrouted/k, "count")
	r.set("service.stale_per_instance", staleFrames/k, "count")
	r.set("service.inbox_drops_per_instance", drops/k, "count")
	r.set("service.useful_frame_frac", 1-(wasted+unrouted+staleFrames+drops)/frames, "frac")
	if spec.Transport == "tcp" {
		writes := d(after.SocketWrites, before.SocketWrites)
		r.set("transport.frames_per_write", d(after.SocketFrames, before.SocketFrames)/writes, "count")
		r.set("transport.writes_per_instance", writes/k, "count")
		r.set("transport.rejected_per_instance", rejected/k, "count")
		rounds := 0
		if rec := recs[0].res; rec != nil {
			rounds = rec.Rounds
		}
		enc, dec, allocs, err := codecProbe(spec.N, rounds, 200)
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		r.set("transport.encode_us", enc, "us")
		r.set("transport.decode_us", dec, "us")
		r.set("transport.allocs_per_frame", allocs, "count")
	}
	untraced.runtimeLayer(r)
	finishTrace(r, w, o, spans, untraced, p)
	return nil
}
