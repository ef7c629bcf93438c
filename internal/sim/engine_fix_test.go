package sim

import (
	"slices"
	"testing"
)

// --- clock-clamp regression (ISSUE 6 satellite) ----------------------------

// TestEngineRunLimitClampsToNow pins the fix for the clock-rewind bug: Run
// (and RunChunked) with limit < Now() used to assign e.now = limit on the
// early-out branch, moving simulated time backwards across resumed runs.
func TestEngineRunLimitClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(100, func() { fired = true })
	if got := e.Run(50); got != 50 {
		t.Fatalf("Run(50) = %d, want 50", got)
	}
	if got := e.Run(10); got != 50 {
		t.Fatalf("Run(10) after reaching cycle 50 = %d, want 50 (clock must not rewind)", got)
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
	// Scheduling at a cycle the clock already passed must still panic — a
	// rewound clock would silently accept it.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("At(30) after cycle 50 did not panic")
			}
		}()
		e.At(30, func() {})
	}()
	if got := e.Run(0); got != 100 || !fired {
		t.Fatalf("Run(0) = %d fired=%v, want 100 true", got, fired)
	}

	e2 := NewEngine()
	e2.Schedule(100, func() {})
	e2.Run(50)
	if got := e2.RunChunked(10, 4, nil); got != 50 {
		t.Fatalf("RunChunked(10, ...) after cycle 50 = %d, want 50", got)
	}
	if e2.Now() != 50 {
		t.Fatalf("RunChunked rewound clock to %d", e2.Now())
	}
}

// --- stop-at-every-event property (ISSUE 6 satellite) ----------------------

// stopRec is one executed event observation.
type stopRec struct {
	id   int
	when Cycle
}

// buildNested schedules the deterministic nested workload used by the
// stop/resume and fuzz tests: one root per input byte, each event fanning out
// into a same-cycle child and a future child, with delays spread over the
// whole queue (see wideDelay) and every third event placed with At. onExec
// (if non-nil via the returned setter) runs inside every event, after
// tracing.
func buildNested(e testQueue, data []byte) (trace *[]stopRec, setHook func(func())) {
	tr := &[]stopRec{}
	var hook func()
	id := 0
	var add func(d Cycle, depth int)
	add = func(d Cycle, depth int) {
		me := id
		id++
		fn := func() {
			*tr = append(*tr, stopRec{me, e.Now()})
			if hook != nil {
				hook()
			}
			if depth > 0 {
				add(0, depth-1) // same-cycle traffic
				add(wideDelay(uint(d)+uint(me)), depth-1)
			}
		}
		if me%3 == 2 {
			e.At(e.Now()+d, fn)
		} else {
			e.Schedule(d, fn)
		}
	}
	for _, b := range data {
		add(wideDelay(uint(b)), int(b%3))
	}
	return tr, func(fn func()) { hook = fn }
}

// TestEngineStopEveryEventIdentical proves the Stop/resume audit claim: a run
// interrupted by Stop after every single event — including in the middle of
// a bucket's same-cycle spawns — is bit-identical to an uninterrupted run, and
// both match the container/heap oracle.
func TestEngineStopEveryEventIdentical(t *testing.T) {
	workloads := [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{2, 2, 2, 2},          // heavy same-cycle fan-out
		{15, 14, 13, 3, 1, 0}, // mixed delays
		[]byte("every wheel bucket and the overflow heap"),
	}
	for wi, data := range workloads {
		oracle := &oracleEngine{}
		ref, _ := buildNested(oracle, data)
		oracle.Run(0)

		plain := NewEngine()
		want, _ := buildNested(plain, data)
		plain.Run(0)
		if !slices.Equal(*want, *ref) {
			t.Fatalf("workload %d: uninterrupted run diverged from the oracle", wi)
		}

		interrupted := NewEngine()
		got, setHook := buildNested(interrupted, data)
		setHook(interrupted.Stop)
		steps := 0
		for interrupted.Pending() > 0 {
			interrupted.Run(0)
			steps++
			if steps > len(*want)+8 {
				t.Fatalf("workload %d: no progress after %d resumes", wi, steps)
			}
		}
		if len(*got) != len(*want) {
			t.Fatalf("workload %d: %d events interrupted vs %d uninterrupted", wi, len(*got), len(*want))
		}
		for i := range *want {
			if (*got)[i] != (*want)[i] {
				t.Fatalf("workload %d event %d: interrupted %+v, uninterrupted %+v",
					wi, i, (*got)[i], (*want)[i])
			}
		}
		if interrupted.Now() != plain.Now() || interrupted.Executed != plain.Executed {
			t.Fatalf("workload %d: now/executed diverged: %d/%d vs %d/%d",
				wi, interrupted.Now(), interrupted.Executed, plain.Now(), plain.Executed)
		}
	}
}

// --- fuzzing (ISSUE 6 satellite) -------------------------------------------

// FuzzEngineEquivalence fuzzes random (delay, Stop, RunChunked-chunk, limit)
// schedules: whatever mix of limited runs, chunked runs, hard stops, and
// stop-after-every-event resumes the control bytes select, the execution
// trace must equal one uninterrupted run of the container/heap oracle.
// Limits and chunk boundaries are offset from the next pending event, so
// every driver step runs at least one event however far apart they are, and
// the offsets land between occupied buckets and across the wheel horizon.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{0, 1, 2, 3})
	f.Add([]byte{2, 2, 2, 2, 9, 9}, []byte{3, 0, 0, 1})
	f.Add([]byte{15, 0, 7, 8}, []byte{2, 2, 2})
	f.Add([]byte{}, []byte{})
	f.Add([]byte("timing wheel"), []byte{4, 253, 130, 7, 1, 66})
	f.Fuzz(func(t *testing.T, data, ctl []byte) {
		if len(data) > 64 {
			data = data[:64] // bound workload size
		}
		oracle := &oracleEngine{}
		want, _ := buildNested(oracle, data)
		oracle.Run(0)

		subject := NewEngine()
		got, setHook := buildNested(subject, data)
		step := 0
		for subject.Pending() > 0 {
			c := byte(0)
			if len(ctl) > 0 {
				c = ctl[step%len(ctl)]
			}
			step++
			if step > 10*len(*want)+100 {
				t.Fatalf("no progress after %d driver steps", step)
			}
			next, _ := subject.nextWhen()
			off := Cycle(c/4) * 37 // 0 .. 2331
			switch c % 4 {
			case 0: // limited run; +1 avoids the 0 sentinel
				subject.Run(next + off + 1)
			case 1: // stop after every event, then resume
				setHook(subject.Stop)
				subject.Run(0)
				setHook(nil)
			case 2: // chunked with a pause (and stop) at the first boundary
				subject.RunChunked(0, next-subject.Now()+off+1, func(Cycle) bool { return false })
			case 3: // chunked with a limit
				subject.RunChunked(next+off+1, Cycle(c%7)*150+3, nil)
			}
		}
		if len(*got) != len(*want) {
			t.Fatalf("%d events fuzzed-drive vs %d oracle", len(*got), len(*want))
		}
		for i := range *want {
			if (*got)[i] != (*want)[i] {
				t.Fatalf("event %d: %+v vs oracle %+v", i, (*got)[i], (*want)[i])
			}
		}
		if subject.Now() != oracle.Now() {
			t.Fatalf("final now %d vs oracle %d", subject.Now(), oracle.Now())
		}
	})
}
