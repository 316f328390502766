package core

import (
	"fmt"
	"math"
	"sort"

	"mbfaa/internal/mixedmode"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/multiset"
)

// This file is the engine half of the base+patch round kernel (see
// internal/msr/kernel.go for the merge/apply half). A full-mesh send phase
// has shared structure the n×n observation matrix obscures: symmetric
// senders — correct processes and M2-cured rebroadcasters — send one value
// to everybody, so two receivers' multisets differ only in the entries of
// the asymmetric senders (faulty processes and M3-cured poisoned queues),
// at most 2f of them. The kernel plan stores exactly that factored form:
// one base sorted once per round, plus an |asym|×n patch block. Every round
// is planned and voted in this form; the matrix and the per-sender expected
// values are only materialized from the plan for OnRound snapshots.

// kernelPlan is one round's send phase in base+patch form. Its slices live
// in the Runner's scratch and grow monotonically; a plan is valid until the
// next round is planned. The parallel vote loop shares it read-only with
// its vote workers.
type kernelPlan struct {
	// base holds the symmetric senders' values, sorted ascending after
	// sealBase. Every receiver's multiset contains all of it.
	base []float64
	// symmetric[s] marks a sender that delivered its stored vote to every
	// receiver (a correct process or an M2-cured rebroadcaster); its value
	// is in the base. Silent senders (M1-cured) are in neither base nor
	// patch block.
	symmetric []bool
	// dirs is the round's adversarial send script — the Directives block
	// the batched consultation filled. Its sender list is exactly the
	// plan's asymmetric senders, ascending.
	dirs *mobile.Directives
}

// reset prepares the plan for a round of n senders, recycling all buffers.
func (kp *kernelPlan) reset(n int) {
	if cap(kp.symmetric) < n {
		kp.symmetric = make([]bool, n)
	}
	kp.symmetric = kp.symmetric[:n]
	for i := range kp.symmetric {
		kp.symmetric[i] = false
	}
	kp.base = kp.base[:0]
	kp.dirs = nil
}

// addSymmetric registers sender as broadcasting v to every receiver.
func (kp *kernelPlan) addSymmetric(sender int, v float64) {
	kp.symmetric[sender] = true
	kp.base = append(kp.base, v)
}

// sealBase sorts the base; after it the plan is ready for voting.
func (kp *kernelPlan) sealBase() { sort.Float64s(kp.base) }

// patchInto appends receiver's non-omitted patch values to dst: the
// receiver's row of the directives block, which is contiguous there.
func (kp *kernelPlan) patchInto(dst []float64, receiver int) []float64 {
	return kp.dirs.AppendRow(dst, receiver)
}

// planSendPhase computes one round's send phase in base+patch form. It
// classifies every sender in one ascending pass, then consults the
// adversary exactly once, through the batched RoundAdversary surface, with
// the consultation order inside the directives block pinned — senders
// ascending, receivers ascending within each scripted sender — so that
// randomized adversaries behave identically to the historical per-pair
// calls, which the compatibility Adapter replays in that same order.
//
// Send semantics per state (paper §3 and Lemmas 1–4):
//
//	correct      broadcast stored vote to everyone (including itself)
//	faulty       per-receiver adversary-chosen value or omission
//	cured, M1    silent (aware of its state)
//	cured, M2    broadcast stored (corrupted) vote — symmetric
//	cured, M3    per-receiver values from the agent-prepared queue
//	cured, M4    cannot occur: agents move with messages, so no process
//	             is cured during a send phase
//
// U is accumulated only when the checkers or an OnRound callback will read
// it: over scratch for the checkers, freshly allocated for a callback, which
// may retain it. With a callback the plan also carries the observation
// matrix and expected values (see materialize).
func (st *runState) planSendPhase(round int) (plannedRound, error) {
	cfg := st.cfg
	votes, states := st.votes, st.states
	kp := &st.sc.kern
	kp.reset(cfg.N)
	d := &st.sc.dirs
	d.Reset(cfg.N)
	faulty := st.sc.fList[:0]
	cured := st.sc.cList[:0]
	needU := st.report != nil || st.snapshot
	var uValues []float64 // fresh under a callback, which may retain U
	if !st.snapshot {
		uValues = st.sc.uValues[:0]
	}

	for sender := 0; sender < cfg.N; sender++ {
		switch states[sender] {
		case mobile.StateCorrect:
			if needU {
				uValues = append(uValues, votes[sender])
			}
			kp.addSymmetric(sender, votes[sender])
		case mobile.StateFaulty:
			faulty = append(faulty, sender)
			d.AddSender(sender, false)
		case mobile.StateCured:
			cured = append(cured, sender)
			switch cfg.Model {
			case mobile.M1Garay:
				// Aware and silent: no receiver observes anything.
			case mobile.M2Bonnet:
				kp.addSymmetric(sender, votes[sender])
			case mobile.M3Sasaki:
				d.AddSender(sender, true)
			case mobile.M4Buhrman:
				return plannedRound{}, fmt.Errorf("core: cured process %d during an M4 send phase", sender)
			}
		default:
			return plannedRound{}, fmt.Errorf("core: process %d in invalid state %v", sender, states[sender])
		}
	}
	st.consultRound(round, faulty, cured, d)
	kp.dirs = d
	kp.sealBase()
	plan := plannedRound{kern: kp}
	if needU {
		u, err := multiset.FromOwned(uValues)
		if err != nil {
			return plannedRound{}, fmt.Errorf("core: building U: %w", err)
		}
		plan.u = u
	}
	if st.snapshot {
		var err error
		if plan.matrix, plan.expected, err = st.materialize(kp); err != nil {
			return plannedRound{}, err
		}
	}
	return plan, nil
}

// materialize builds the round's OnRound snapshot from the kernel plan: the
// full observation matrix and the value each sender would have broadcast
// had it been correct (NaN for faulty and cured senders). It reads the
// send-phase votes and states, so it runs before M4's mid-round move. Both
// are freshly allocated, because the callback may retain them.
func (st *runState) materialize(kp *kernelPlan) (*mixedmode.Matrix, []float64, error) {
	n := st.cfg.N
	matrix, err := mixedmode.NewMatrix(n)
	if err != nil {
		return nil, nil, err
	}
	record := func(receiver, sender int, v float64) {
		if err == nil {
			err = matrix.Record(receiver, sender, mixedmode.Observation{Value: v})
		}
	}
	expected := make([]float64, n)
	for s, sym := range kp.symmetric {
		expected[s] = math.NaN()
		if st.states[s] == mobile.StateCorrect {
			expected[s] = st.votes[s]
		}
		if sym {
			for r := 0; r < n; r++ {
				record(r, s, st.votes[s])
			}
		}
	}
	// Silent senders and omitted directives stay Omitted.
	d := kp.dirs
	for k := 0; k < d.Len(); k++ {
		for r := 0; r < n; r++ {
			if v, omit := d.At(k, r); !omit {
				record(r, d.Sender(k), v)
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return matrix, expected, nil
}

// consultRound performs the round's single adversary consultation: it seals
// the directives block (all entries omitted) and hands the batched
// RoundView to the run's RoundAdversary to fill it. The view is the same
// zero-copy send-phase snapshot the per-pair path always consulted over,
// and the fault lists live in scratch like everything else the adversary
// sees — the no-retention contract covers them.
func (st *runState) consultRound(round int, faulty, cured []int, d *mobile.Directives) {
	d.Seal()
	st.sc.rview = mobile.RoundView{
		View:   st.borrowView(round, phaseSend),
		Faulty: faulty,
		Cured:  cured,
	}
	st.batch.RoundDirectives(&st.sc.rview, d)
}

// computeVoteKernel applies the voting function to one receiver's multiset
// in base+patch form: sort the O(f) patch, merge it linearly into the
// shared sorted base, and apply the voting function over the merged
// sequence — the same ascending order and left-to-right summation a sort of
// the receiver's full row produces, so the result is bit-identical to
// msr.ApplyCapped over that row (internal/proptest checks it against that
// naive reference). patch is sorted in place; merged is the caller's
// scratch (length 0, capacity ≥ len(base)+len(patch)). Trimming degrades
// gracefully when omissions leave fewer than 2τ+1 values (ApplySorted caps
// τ so one value survives); above the replica bound the cap never engages.
// On total silence the process retains its previous value (a real protocol
// has nothing better); a NaN previous value means it had no usable state,
// which cannot happen for a non-faulty process with n > 1.
func computeVoteKernel(algo msr.Algorithm, tau int, base, patch, merged []float64, previous float64) (float64, error) {
	sort.Float64s(patch)
	merged = msr.MergeSorted(merged, base, patch)
	if len(merged) == 0 {
		if math.IsNaN(previous) {
			return 0, fmt.Errorf("core: no values received and no previous state")
		}
		return previous, nil
	}
	return msr.ApplySorted(algo, merged, tau)
}
