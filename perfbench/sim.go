package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"mbfaa"
)

const (
	simN         = 256
	simAdversary = "random"
	// simWorkerCheck is how many specs of the run are re-executed with the
	// other vote-loop width to prove the digest VoteWorkers-invariant.
	simWorkerCheck = 8
	// simPinnedDigest is the digest of specs 0–3 (one per model) of seed 0.
	// A change to the simulation's output changes it and fails the run.
	simPinnedDigest = "fee14188a4fb4d19"
)

// simSpec draws spec i of the sim workload from the seed: n=256, the models
// M1–M4 in turn at their Table 2 maximum agent count, the random adversary,
// FTM, unit-range inputs and an engine seed. Specs are drawn as the clients
// reach them, so the heap holds the program's state rather than the input
// list.
func simSpec(seed uint64, i int) mbfaa.Spec {
	rng := rand.New(rand.NewPCG(seed, uint64(i)))
	models := mbfaa.Models()
	m := models[i%len(models)]
	inputs := make([]float64, simN)
	for j := range inputs {
		inputs[j] = rng.Float64()
	}
	return mbfaa.Spec{
		Model:         m,
		N:             simN,
		F:             mbfaa.MaxFaulty(m, simN),
		Inputs:        inputs,
		AlgorithmName: "ftm",
		AdversaryName: simAdversary,
		Seed:          rng.Uint64(),
		ExplicitSeed:  true,
	}
}

// resultDigest hashes the outputs a perf change must not move: the round
// count and every final vote, bit for bit.
func resultDigest(res *mbfaa.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for k := range b {
			b[k] = byte(x >> (8 * k))
		}
		h.Write(b[:])
	}
	put(uint64(res.Rounds))
	for _, v := range res.Votes {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// foldDigests combines per-spec digests in spec order.
func foldDigests(ds []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range ds {
		for k := range b {
			b[k] = byte(d >> (8 * k))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// simRun times one Engine.Run of spec and stores its digest in *digest.
func simRun(eng *mbfaa.Engine, spec mbfaa.Spec, digest *uint64) (*mbfaa.Result, outcome) {
	t0 := time.Now()
	res, err := eng.Run(context.Background(), spec)
	o := outcome{latency: time.Since(t0), err: err}
	if err == nil {
		o.ok = res.Converged && res.Valid()
		*digest = resultDigest(res)
	}
	return res, o
}

// simDigests runs specs [0, count) of seed sequentially on a fresh Engine
// and returns their digests.
func simDigests(seed uint64, count int) ([]uint64, error) {
	eng := mbfaa.NewEngine()
	ds := make([]uint64, count)
	for i := range ds {
		if _, out := simRun(eng, simSpec(seed, i), &ds[i]); out.err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, out.err)
		}
	}
	return ds, nil
}

// runSim is the sim workload: one client runs Engine.Run over the seeded
// spec list. Only the kernel (core), adversary planning (mobile) and the
// vote function (msr) do work; there is no node goroutine and no transport.
func runSim(w *workload, o options) (*report, error) {
	r := newReport()
	r.correct = true
	total := w.instances(o)

	pinned, err := simDigests(0, len(mbfaa.Models()))
	if err != nil {
		return nil, fmt.Errorf("pinned specs: %w", err)
	}
	if got := foldDigests(pinned); got != simPinnedDigest {
		r.fail("pinned sim digest %s, want %s: the simulation's output changed", got, simPinnedDigest)
	}

	_, most := passSize(total)
	digests := make([]uint64, most)
	var setup []sample
	if !o.trace {
		first := simSpec(o.seed, 0)
		setup, err = timeSetups(func(k int) (time.Duration, error) {
			_, out := simRun(mbfaa.NewEngine(), first, &digests[0])
			if !out.ok {
				r.fail("set-up run %d: err=%v ok=%v", k, out.err, out.ok)
			}
			return out.latency, nil
		})
		if err != nil {
			return nil, err
		}
	}

	eng := mbfaa.NewEngine()
	simRun(eng, simSpec(o.seed, 0), &digests[0]) // fill the runner pool before timing
	p := closedLoop(total, w.clients(), func(i int) outcome {
		spec := simSpec(o.seed, i)
		_, out := simRun(eng, spec, &digests[i])
		return out
	})
	// The digest covers the fixed work only: how many slices run beyond it
	// depends on steal.
	r.facts["sim_digest"] = foldDigests(digests[:p.base])
	checkVerdicts(r, w, p)
	checkWorkerInvariance(r, o.seed, digests[:min(simWorkerCheck, p.base)])

	if !o.trace {
		p.endToEnd(r, setup)
		return r, nil
	}
	return r, traceSim(r, w, o, digests[:p.attempted], p)
}

// checkWorkerInvariance re-runs the first specs with the other vote-loop
// width (the engine's automatic VoteWorkers follows GOMAXPROCS at n ≥ 128)
// and fails the run if any result digest differs. It runs after the
// measured pass and restores GOMAXPROCS before returning.
func checkWorkerInvariance(r *report, seed uint64, want []uint64) {
	procs := runtime.GOMAXPROCS(0)
	other := 1
	if procs == 1 {
		other = 2
	}
	runtime.GOMAXPROCS(other)
	got, err := simDigests(seed, len(want))
	runtime.GOMAXPROCS(procs)
	if err != nil {
		r.fail("vote-worker check: %v", err)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			r.fail("spec %d: digest %016x at GOMAXPROCS %d, %016x at %d", i, got[i], other, want[i], procs)
		}
	}
}

// traceSim runs the spec list again with every adversary and vote function
// decorated, and records the per-layer breakdown. want holds the untraced
// pass's digests.
func traceSim(r *report, w *workload, o options, want []uint64, untraced phase) error {
	_, most := passSize(untraced.base)
	adv := make([]busy, most)
	vote := make([]busy, most)
	digests := make([]uint64, most)
	starts := make([]time.Duration, most)
	rounds := make([]int, most)
	traced := func(i int, a, v *busy) (mbfaa.Spec, error) {
		spec := simSpec(o.seed, i)
		factory, err := timedAdversaryFactory(simAdversary, a)
		if err != nil {
			return spec, err
		}
		spec.AdversaryFactory = factory
		spec.Algorithm = &timedAlgorithm{inner: mbfaa.FTM, b: v}
		return spec, nil
	}
	eng := mbfaa.NewEngine()
	var warmAdv, warmVote busy
	warm, err := traced(0, &warmAdv, &warmVote)
	if err != nil {
		return err
	}
	if _, err := eng.Run(context.Background(), warm); err != nil {
		return err
	}
	begin := time.Now()
	p := closedLoop(untraced.base, w.clients(), func(i int) outcome {
		spec, err := traced(i, &adv[i], &vote[i])
		if err != nil {
			return outcome{err: err}
		}
		starts[i] = time.Since(begin)
		res, out := simRun(eng, spec, &digests[i])
		if out.err == nil {
			rounds[i] = res.Rounds
		}
		return out
	})
	for i := range min(len(want), p.attempted) {
		if digests[i] != want[i] {
			r.fail("traced spec %d digest %016x, untraced %016x: the decorators changed the output", i, digests[i], want[i])
		}
	}

	var spans []span
	var runMS, advMS, voteMS, applies float64
	for i := range p.attempted {
		id := uint32(i)
		lat := p.outs[i].latency
		spans = append(spans,
			span{Instance: id, Name: "core.run", StartUS: us(starts[i]), DurUS: us(lat), Calls: 1},
			span{Instance: id, Name: "mobile.directives", Parent: "core.run", StartUS: us(starts[i]), DurUS: adv[i].ms() * 1000, Calls: adv[i].calls.Load()},
			span{Instance: id, Name: "msr.apply", Parent: "core.run", StartUS: us(starts[i]), DurUS: vote[i].ms() * 1000, Calls: vote[i].calls.Load()},
		)
		runMS += float64(lat) / float64(time.Millisecond)
		advMS += adv[i].ms()
		voteMS += vote[i].ms()
		applies += float64(vote[i].calls.Load())
	}
	// The round count covers the fixed work only, so it repeats exactly.
	roundSum := 0
	for _, n := range rounds[:p.base] {
		roundSum += n
	}
	k := float64(p.attempted)
	r.set("core.run_ms", runMS/k, "ms")
	r.set("core.self_ms", (runMS-advMS-voteMS)/k, "ms")
	r.set("core.rounds_per_instance", float64(roundSum)/float64(p.base), "count")
	r.set("mobile.directives_ms_per_instance", advMS/k, "ms")
	r.set("mobile.share", advMS/runMS, "frac")
	r.set("msr.apply_ms_per_instance", voteMS/k, "ms")
	r.set("msr.applies_per_instance", applies/k, "count")
	untraced.runtimeLayer(r)
	finishTrace(r, w, o, spans, untraced, p)
	return nil
}
