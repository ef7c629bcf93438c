package simt

import (
	"testing"

	"getm/internal/isa"
	"getm/internal/sim"
)

// gatedProto is fakeProto plus a CanBegin gate the test controls, standing in
// for GETM's rollover drain.
type gatedProto struct {
	*fakeProto
	open  bool
	hooks []func()
}

func (g *gatedProto) CanBegin() bool       { return g.open }
func (g *gatedProto) OnCanBegin(fn func()) { g.hooks = append(g.hooks, fn) }
func (g *gatedProto) reopen() {
	g.open = true
	for _, fn := range g.hooks {
		fn()
	}
}

// TestReopenedGateAdmitsParkedWarps pins the rollover re-admission bugfix.
// When every warp of a core parks behind a closed CanBegin gate, nothing is
// left running to call endTx — the only place the queue used to be retried —
// so reopening the gate must actively wake the queue via the OnCanBegin hook
// NewCore registers. Before the fix the engine drained with the core stuck
// (the deadlock TestRolloverResumesQueuedWarps exercises end-to-end).
func TestReopenedGateAdmitsParkedWarps(t *testing.T) {
	addrs := make([]uint64, isa.WarpWidth)
	for i := range addrs {
		addrs[i] = uint64(0x5000 + 8*i)
	}
	var progs []*isa.Program
	for w := 0; w < 4; w++ {
		progs = append(progs, isa.NewBuilder().
			TxBegin().
			Load(1, addrs).
			Store(1, addrs).
			TxCommit().
			MustBuild())
	}

	eng := sim.NewEngine()
	fm := newFakeMem(eng)
	gp := &gatedProto{fakeProto: &fakeProto{eng: eng, mem: fm, eager: true, abortOn: map[uint64]int{}}}
	cfg := DefaultConfig()
	cfg.WarpsPerCore = 4
	i := 0
	dispatch := func() *isa.Program {
		if i >= len(progs) {
			return nil
		}
		p := progs[i]
		i++
		return p
	}
	c := NewCore(0, eng, cfg, gp, fm, sim.NewRNG(1), dispatch)

	// Gate closed: every warp reaches TxBegin, parks, and the event queue
	// drains with the core stuck — the deadlock state.
	c.Start()
	eng.Run(0)
	if c.AllDone() {
		t.Fatal("warps finished through a closed gate")
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending; warps did not park", eng.Pending())
	}

	// Reopening must wake the parked warps with no other activity in flight.
	gp.reopen()
	eng.Run(0)
	if !c.AllDone() {
		t.Fatalf("parked warps never admitted after gate reopened: %v", c.StuckWarps())
	}
	if c.Stats.Commits == 0 {
		t.Fatal("no commits after re-admission")
	}
}
