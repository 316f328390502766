package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"mbfaa"
	"mbfaa/internal/mobile"
	"mbfaa/internal/multiset"
	"mbfaa/internal/transport"
)

// busy accumulates the time spent inside one layer's calls and how many
// calls there were. It is safe for concurrent use: the simulation kernel's
// vote workers and the Service's node goroutines call the same decorator
// at once.
type busy struct {
	ns, calls atomic.Int64
}

func (b *busy) add(t0 time.Time) {
	b.ns.Add(int64(time.Since(t0)))
	b.calls.Add(1)
}

func (b *busy) ms() float64 { return float64(b.ns.Load()) / float64(time.Millisecond) }

// timedAdversary times every call into a RoundAdversary. It implements
// RoundAdversary itself, so the engine keeps the batched consultation path
// it would take for the undecorated adversary, and Unwrap lets the engine's
// marker lookups (stateful, view-retaining) reach the wrapped one.
type timedAdversary struct {
	inner mbfaa.RoundAdversary
	b     *busy
}

func (a *timedAdversary) Name() string            { return a.inner.Name() }
func (a *timedAdversary) Unwrap() mbfaa.Adversary { return a.inner }

func (a *timedAdversary) Place(v *mobile.View) []int {
	t0 := time.Now()
	p := a.inner.Place(v)
	a.b.add(t0)
	return p
}

func (a *timedAdversary) FaultyValue(v *mobile.View, faulty, receiver int) (float64, bool) {
	t0 := time.Now()
	x, omit := a.inner.FaultyValue(v, faulty, receiver)
	a.b.add(t0)
	return x, omit
}

func (a *timedAdversary) LeaveBehind(v *mobile.View, p int) float64 {
	t0 := time.Now()
	x := a.inner.LeaveBehind(v, p)
	a.b.add(t0)
	return x
}

func (a *timedAdversary) QueueValue(v *mobile.View, cured, receiver int) (float64, bool) {
	t0 := time.Now()
	x, omit := a.inner.QueueValue(v, cured, receiver)
	a.b.add(t0)
	return x, omit
}

func (a *timedAdversary) RoundDirectives(rv *mbfaa.RoundView, d *mbfaa.Directives) {
	t0 := time.Now()
	a.inner.RoundDirectives(rv, d)
	a.b.add(t0)
}

// timedAdversaryFactory wraps a registered adversary's constructor so every
// instance it builds reports into b.
func timedAdversaryFactory(name string, b *busy) (func() mbfaa.Adversary, error) {
	factory, err := mbfaa.AdversaryFactoryByName(name)
	if err != nil {
		return nil, err
	}
	if _, ok := factory().(mbfaa.RoundAdversary); !ok {
		return nil, fmt.Errorf("adversary %q is not a RoundAdversary; decorating it would change the engine's path", name)
	}
	return func() mbfaa.Adversary {
		return &timedAdversary{inner: factory().(mbfaa.RoundAdversary), b: b}
	}, nil
}

// timedAlgorithm times every MSR vote. Contraction (the horizon
// computation) passes through untimed.
type timedAlgorithm struct {
	inner mbfaa.Algorithm
	b     *busy
}

func (a *timedAlgorithm) Name() string { return a.inner.Name() }

func (a *timedAlgorithm) Apply(received multiset.Multiset, tau int) (float64, error) {
	t0 := time.Now()
	v, err := a.inner.Apply(received, tau)
	a.b.add(t0)
	return v, err
}

func (a *timedAlgorithm) Contraction(m, tau, asym int) (float64, bool) {
	return a.inner.Contraction(m, tau, asym)
}

// mallocs returns the heap allocations made so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// span is one traced interval, keyed by instance id. An aggregated span
// (calls > 1) sums the busy time of many calls of one layer within the
// instance; its start is the instance's.
type span struct {
	Instance uint32  `json:"instance"`
	Name     string  `json:"span"`
	Parent   string  `json:"parent,omitempty"`
	StartUS  float64 `json:"start_us"`
	DurUS    float64 `json:"dur_us"`
	Calls    int64   `json:"calls"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeSpans writes the spans kept in memory, one JSON object a line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// codecProbe times direct Codec calls on frames shaped like one Service
// instance's traffic: n×n messages a round for the given rounds, stamped
// with an instance id and epoch. It returns µs per Encode, µs per Decode
// and allocations per encode+decode pair.
func codecProbe(n, rounds, instances int) (encUS, decUS, allocs float64, err error) {
	codec, err := transport.NewCodec([]byte("perfbench-codec-probe-key"))
	if err != nil {
		return 0, 0, 0, err
	}
	var msgs []transport.Message
	for id := 1; id <= instances; id++ {
		for r := 0; r < rounds; r++ {
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					msgs = append(msgs, transport.Message{Round: r, From: from, To: to,
						Value: float64(from*n+to) / float64(n*n), Instance: uint32(id), Seq: uint32(id)})
				}
			}
		}
	}
	frames := make([][]byte, len(msgs))
	m0 := mallocs()
	t0 := time.Now()
	for i, m := range msgs {
		if frames[i], err = codec.Encode(m); err != nil {
			return 0, 0, 0, fmt.Errorf("encode: %w", err)
		}
	}
	enc := time.Since(t0)
	t1 := time.Now()
	for i, fr := range frames {
		got, err := codec.Decode(fr)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("decode: %w", err)
		}
		if got != msgs[i] {
			return 0, 0, 0, fmt.Errorf("decode: frame %d round-tripped to %+v, want %+v", i, got, msgs[i])
		}
	}
	dec := time.Since(t1)
	m2 := mallocs()
	k := float64(len(msgs))
	return us(enc) / k, us(dec) / k, float64(m2-m0) / k, nil
}
