package sim

import (
	"testing"
	"testing/quick"
)

// chunkWorkload schedules a deterministic self-extending event mix on eng and
// returns the pointer to its execution log: each event appends its id, and
// some events reschedule follow-ups at delay 0 or at a delay spread over the
// whole queue (see wideDelay), so same-cycle spawns, wheel wrap-around, the
// overflow heap, and cross-chunk boundaries all get exercised.
func chunkWorkload(eng testQueue, n int) *[]int {
	log := &[]int{}
	var spawn func(id int, depth int)
	spawn = func(id, depth int) {
		*log = append(*log, id)
		if depth > 0 {
			eng.Schedule(0, func() { spawn(id*10+1, depth-1) })
			eng.Schedule(wideDelay(uint(id)), func() { spawn(id*10+2, depth-1) })
		}
	}
	for i := 0; i < n; i++ {
		i := i
		eng.At(wideDelay(uint(n+i)), func() { spawn(i, 3) })
	}
	return log
}

func equalLogs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A chunked run must execute exactly the event sequence of an unchunked one,
// for any chunk size, with and without a limit.
func TestRunChunkedIdentical(t *testing.T) {
	ref := NewEngine()
	refLog := chunkWorkload(ref, 20)
	refEnd := ref.Run(0)
	oracle := &oracleEngine{}
	oracleLog := chunkWorkload(oracle, 20)
	if oracleEnd := oracle.Run(0); oracleEnd != refEnd || !equalLogs(*oracleLog, *refLog) {
		t.Fatalf("unchunked run diverged from the oracle: end %d vs %d", refEnd, oracleEnd)
	}

	for _, chunk := range []Cycle{1, 2, 3, 7, 16, 1000, wheelSize + 1, 5000} {
		eng := NewEngine()
		log := chunkWorkload(eng, 20)
		boundaries := 0
		end := eng.RunChunked(0, chunk, func(now Cycle) bool {
			if now%chunk != 0 {
				t.Errorf("chunk %d: between called at non-boundary cycle %d", chunk, now)
			}
			boundaries++
			return true
		})
		if end != refEnd {
			t.Errorf("chunk %d: end cycle %d, want %d", chunk, end, refEnd)
		}
		if !equalLogs(*log, *refLog) {
			t.Errorf("chunk %d: execution order diverged (%d vs %d events)", chunk, len(*log), len(*refLog))
		}
		if chunk < refEnd && boundaries == 0 {
			t.Errorf("chunk %d: between never called over a %d-cycle run", chunk, refEnd)
		}
	}
}

// Property: for arbitrary small workload shapes and chunk sizes, chunked and
// unchunked runs end at the same cycle with the same event order.
func TestRunChunkedIdenticalProperty(t *testing.T) {
	prop := func(n uint8, chunk uint8) bool {
		jobs := int(n%15) + 1
		c := Cycle(chunk%32) + 1
		ref := NewEngine()
		refLog := chunkWorkload(ref, jobs)
		refEnd := ref.Run(0)
		eng := NewEngine()
		log := chunkWorkload(eng, jobs)
		end := eng.RunChunked(0, c, nil)
		return end == refEnd && equalLogs(*log, *refLog)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Returning false from between must stop the run at that exact boundary,
// leaving the queue resumable: a follow-up Run completes identically to a
// never-stopped run.
func TestRunChunkedEarlyStopResumes(t *testing.T) {
	ref := NewEngine()
	refLog := chunkWorkload(ref, 20)
	refEnd := ref.Run(0)

	const chunk = 5
	eng := NewEngine()
	log := chunkWorkload(eng, 20)
	stopAt := 2 // boundaries seen before refusing
	seen := 0
	end := eng.RunChunked(0, chunk, func(now Cycle) bool {
		seen++
		return seen <= stopAt
	})
	wantStop := Cycle((stopAt + 1) * chunk)
	if end != wantStop {
		t.Fatalf("stopped at cycle %d, want boundary %d", end, wantStop)
	}
	if eng.Pending() == 0 {
		t.Fatal("early stop drained the queue")
	}
	// Cancel latency bound: no event past the refusing boundary has run.
	if got := eng.Now(); got > wantStop {
		t.Fatalf("engine advanced to %d past the stop boundary %d", got, wantStop)
	}

	if resumed := eng.Run(0); resumed != refEnd {
		t.Fatalf("resumed run ended at %d, want %d", resumed, refEnd)
	}
	if !equalLogs(*log, *refLog) {
		t.Fatal("stop+resume diverged from the uninterrupted run")
	}
}

// Chunk 0 must degenerate to a plain Run with between never invoked.
func TestRunChunkedZeroChunk(t *testing.T) {
	ref := NewEngine()
	refLog := chunkWorkload(ref, 10)
	refEnd := ref.Run(0)

	eng := NewEngine()
	log := chunkWorkload(eng, 10)
	end := eng.RunChunked(0, 0, func(Cycle) bool {
		t.Error("between called with chunk 0")
		return true
	})
	if end != refEnd || !equalLogs(*log, *refLog) {
		t.Fatal("zero-chunk run diverged from plain Run")
	}
}

// A limit below the natural end must win over chunking: the run stops at the
// limit with the remaining events still queued.
func TestRunChunkedRespectsLimit(t *testing.T) {
	ref := NewEngine()
	chunkWorkload(ref, 20)
	refEnd := ref.Run(0)
	limit := refEnd / 2
	if limit == 0 {
		t.Skip("workload too short")
	}

	eng := NewEngine()
	chunkWorkload(eng, 20)
	end := eng.RunChunked(limit, 3, nil)
	if end != limit {
		t.Fatalf("end = %d, want limit %d", end, limit)
	}
	if eng.Pending() == 0 {
		t.Fatal("limit stop drained the queue")
	}
}
