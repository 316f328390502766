package core

import (
	"mbfaa/internal/mixedmode"
	"mbfaa/internal/mobile"
	"mbfaa/internal/multiset"
)

// Labels for deriving per-phase adversary random streams: each decision
// point draws from its own stream, so a randomized adversary's choices at
// one point cannot shift its choices at another.
const (
	phasePlace uint64 = iota + 1
	phaseSend
	phaseLeave
)

// RoundInfo is the post-round snapshot passed to Config.OnRound. All of its
// fields are owned by the callback and remain valid after the run — the
// engine allocates them fresh whenever OnRound is set (experiments such as
// Table 1 retain the matrix and classify it after the sweep completes).
type RoundInfo struct {
	// Round is the round index, starting at 0.
	Round int
	// SendStates are the failure states in force during the send phase.
	SendStates []mobile.State
	// Matrix is the full observation matrix of the round's send phase:
	// Matrix[receiver][sender].
	Matrix *mixedmode.Matrix
	// Expected[s] is the value sender s would have broadcast had it been
	// correct (NaN for processes that were faulty or cured, whose correct
	// value is unknowable).
	Expected []float64
	// Votes are the stored values after the computation phase (NaN for
	// processes faulty during computation).
	Votes []float64
	// ComputeFaulty are the processes faulty during the computation phase
	// (same as send-phase faulty for M1–M3; the post-move hosts for M4).
	ComputeFaulty []int
	// U is the multiset of values broadcast by send-phase-correct
	// processes — the paper's U, the baseline of P1 and P2.
	U multiset.Multiset
}

// plannedRound holds the fully determined send phase of one round. kern is
// the base+patch kernel form every round votes over; it lives in the
// engine's scratch and is only valid until the next round is planned. When
// OnRound is set the plan also carries the observation matrix and expected
// values materialized from kern, freshly allocated because the callback
// may retain them. u is set only when the checkers or the callback read it.
type plannedRound struct {
	kern     *kernelPlan
	matrix   *mixedmode.Matrix
	expected []float64
	u        multiset.Multiset
}

// fillView populates the scratch view in place. Assigning a fresh composite
// literal also zeroes the view's internal range cache, so a recycled view
// never leaks a cached CorrectRange across decision points. The Rng is
// derived into a scratch Source — the identical stream Derive would
// return, without the allocation.
func (st *runState) fillView(round int, phase uint64, votes []float64, states []mobile.State) *mobile.View {
	st.master.DeriveInto(&st.sc.rng, uint64(round), phase)
	st.sc.view = mobile.View{
		Round:  round,
		Model:  st.cfg.Model,
		N:      st.cfg.N,
		F:      st.cfg.F,
		Tau:    st.cfg.Tau(),
		Algo:   st.cfg.Algorithm,
		Votes:  votes,
		States: states,
		Rng:    &st.sc.rng,
	}
	return &st.sc.view
}

// borrowView builds the adversary's omniscient snapshot directly over the
// engine's live vote/state buffers — zero copies. It is only used at
// decision points where the engine does not mutate state until the
// adversary call returns (placement, the send phase). Adversaries must not
// mutate the view's slices (the Adversary contract) nor retain them across
// calls; an adversary that does retain views declares it via
// mobile.ViewRetainer and gets the defensive copies back.
func (st *runState) borrowView(round int, phase uint64) *mobile.View {
	if st.copyViews {
		return st.freshView(round, phase)
	}
	return st.fillView(round, phase, st.votes, st.states)
}

// snapshotView builds the adversary view over a copy of the current votes
// and states held in reusable scratch buffers — an O(n) copy but no
// allocation. It is used when the engine mutates state while the view is
// still being consulted (the movement phase interleaves LeaveBehind calls
// with vote writes, and every consultation must see the pre-move state).
func (st *runState) snapshotView(round int, phase uint64) *mobile.View {
	if st.copyViews {
		return st.freshView(round, phase)
	}
	votes := st.sc.viewVotes[:st.cfg.N]
	states := st.sc.viewStates[:st.cfg.N]
	copy(votes, st.votes)
	copy(states, st.states)
	return st.fillView(round, phase, votes, states)
}

// freshView is the pre-scratch behaviour: a newly allocated view over newly
// allocated copies, safe to retain indefinitely.
func (st *runState) freshView(round int, phase uint64) *mobile.View {
	return &mobile.View{
		Round:  round,
		Model:  st.cfg.Model,
		N:      st.cfg.N,
		F:      st.cfg.F,
		Tau:    st.cfg.Tau(),
		Algo:   st.cfg.Algorithm,
		Votes:  append([]float64(nil), st.votes...),
		States: append([]mobile.State(nil), st.states...),
		Rng:    st.master.Derive(uint64(round), phase),
	}
}
