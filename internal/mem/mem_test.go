package mem

import (
	"slices"
	"testing"
	"testing/quick"

	"getm/internal/sim"
)

func TestImageReadWrite(t *testing.T) {
	im := NewImage()
	if im.Read(0x100) != 0 {
		t.Fatal("fresh image should read zero")
	}
	im.Write(0x100, 42)
	if im.Read(0x100) != 42 {
		t.Fatal("write not visible")
	}
	// Misaligned reads resolve to the containing word.
	if im.Read(0x104) != 42 {
		t.Fatal("word alignment broken")
	}
	if im.Len() != 1 {
		t.Fatalf("len = %d", im.Len())
	}
}

func TestImageSnapshotIsolation(t *testing.T) {
	im := NewImage()
	im.Write(8, 1)
	snap := im.Snapshot()
	im.Write(8, 2)
	if snap.Read(8) != 1 {
		t.Fatal("snapshot aliases original")
	}
	if im.Equal(snap) {
		t.Fatal("diverged images compare equal")
	}
	snap.Write(8, 2)
	if !im.Equal(snap) {
		t.Fatal("identical images compare unequal")
	}
}

func TestImageEqualTreatsAbsentAsZero(t *testing.T) {
	a, b := NewImage(), NewImage()
	a.Write(16, 0)
	if !a.Equal(b) {
		t.Fatal("explicit zero should equal absent word")
	}
}

func TestAddressMapPartitionRangeAndStability(t *testing.T) {
	am := AddressMap{Partitions: 6, LineBytes: 128}
	counts := make([]int, 6)
	for i := 0; i < 10000; i++ {
		addr := uint64(i) * 8
		p := am.Partition(addr)
		if p < 0 || p >= 6 {
			t.Fatalf("partition %d out of range", p)
		}
		if p != am.Partition(addr) {
			t.Fatal("partition mapping unstable")
		}
		counts[p]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d never used — interleaving broken", i)
		}
	}
}

// Property: all addresses within one line map to the same partition.
func TestAddressMapLineCoherence(t *testing.T) {
	am := AddressMap{Partitions: 6, LineBytes: 128}
	prop := func(addr uint64, off uint8) bool {
		base := am.Line(addr)
		return am.Partition(base) == am.Partition(base+uint64(off)%128)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLLCHitMiss(t *testing.T) {
	c := NewLLC(1024, 2, 128) // 8 lines, 4 sets x 2 ways
	if c.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0) {
		t.Fatal("second access should hit")
	}
	if !c.Access(64) {
		t.Fatal("same line should hit")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLLCLRUEviction(t *testing.T) {
	c := NewLLC(256, 2, 128) // 1 set x 2 ways
	c.Access(0 * 128)
	c.Access(1 * 128)
	c.Access(0 * 128) // refresh line 0
	c.Access(2 * 128) // evicts line 1 (LRU)
	if !c.Contains(0) {
		t.Fatal("LRU evicted the recently used line")
	}
	if c.Contains(128) {
		t.Fatal("victim line still present")
	}
	if !c.Contains(256) {
		t.Fatal("filled line absent")
	}
}

// Regression: the LRU clock is 64-bit. With a 32-bit clock, the access after
// 2^32-1 wrapped to a tiny stamp, making the most recently used line look like
// the oldest and evicting it.
func TestLLCLRUClockWrap(t *testing.T) {
	c := NewLLC(256, 2, 128) // 1 set x 2 ways
	c.clock = (1 << 32) - 2
	c.Access(0 * 128) // stamp 2^32-1
	c.Access(1 * 128) // stamp 2^32 (wraps to 0 with a uint32 clock)
	c.Access(2 * 128) // must evict line 0, the genuinely older entry
	if c.Contains(0) {
		t.Fatal("oldest line survived eviction after the clock passed 2^32")
	}
	if !c.Contains(128) {
		t.Fatal("recently used line evicted — LRU clock wrapped")
	}
}

// The shift and mask index exactly as the divisions they replace: Table
// II's partition (128 B lines, 128 sets), the scaled machine's (512 sets),
// a single set and a 64 B line.
func TestLLCIndexMatchesDivision(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, g := range []struct{ capacity, ways, line int }{
		{128 << 10, 8, 128}, // 128 sets
		{512 << 10, 8, 128}, // 512 sets
		{256, 2, 128},       // 1 set
		{64 * 4 * 16, 4, 64},
	} {
		c := NewLLC(g.capacity, g.ways, g.line)
		sets := uint64(g.capacity / g.line / g.ways)
		for i := 0; i < 10000; i++ {
			addr := rng.Uint64() >> uint(rng.Uint64n(64))
			line := addr/uint64(g.line) + 1
			set := int((line ^ (line >> 11)) % sets)
			if got := c.tagOf(addr); got != line {
				t.Fatalf("%+v: tagOf(%#x) = %d, want %d", g, addr, got, line)
			}
			if got := c.setOf(line); got != set {
				t.Fatalf("%+v: setOf(%d) = %d, want %d", g, line, got, set)
			}
		}
	}
}

func TestLLCGeometryPanics(t *testing.T) {
	for _, g := range []struct{ capacity, ways, line int }{
		{100, 3, 64},          // sets do not divide
		{96 * 8 * 4, 8, 96},   // 96 B lines
		{128 * 4 * 6, 4, 128}, // 6 sets
		{1024, 2, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %+v accepted", g)
				}
			}()
			NewLLC(g.capacity, g.ways, g.line)
		}()
	}
}

func TestDRAMBankOccupancy(t *testing.T) {
	d := NewDRAM(2, 200, 36)
	// Two accesses to the same bank: second waits out BankBusy.
	l1 := d.Latency(0, 0)
	l2 := d.Latency(0, 0)
	if l1 != 200 || l2 != 236 {
		t.Fatalf("latencies = %d, %d; want 200, 236", l1, l2)
	}
	// Different bank: unaffected.
	if l3 := d.Latency(1<<10, 0); l3 != 200 {
		t.Fatalf("other-bank latency = %d", l3)
	}
}

func newTestPartition(eng *sim.Engine) *Partition {
	cfg := DefaultPartitionConfig()
	cfg.LLCBytes = 8 << 10
	return NewPartition(0, eng, NewImage(), cfg)
}

// TestPartitionAccessDelay pins the data-path latency: a cold line pays the
// LLC and DRAM latencies, and the same line accessed once the first access
// has completed (a free service slot) hits in exactly the LLC latency.
func TestPartitionAccessDelay(t *testing.T) {
	eng := sim.NewEngine()
	p := newTestPartition(eng)
	var miss, hit sim.Cycle
	eng.Schedule(0, func() { miss = p.AccessDelay(0x40) })
	eng.Run(0)
	eng.At(miss, func() { hit = p.AccessDelay(0x40) })
	eng.Run(0)
	if miss < p.Cfg.LLCLatency+sim.Cycle(p.Cfg.DRAMLatency) {
		t.Fatalf("miss too fast: %d", miss)
	}
	if hit != p.Cfg.LLCLatency {
		t.Fatalf("hit took %d cycles, want the LLC latency %d", hit, p.Cfg.LLCLatency)
	}
}

func TestPartitionServiceSerialization(t *testing.T) {
	eng := sim.NewEngine()
	p := newTestPartition(eng)
	var done []sim.Cycle
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			addr := uint64(i * 8) // same line -> all hit after first
			done = append(done, eng.Now()+p.AccessDelay(addr))
		}
	})
	eng.Run(0)
	if len(done) != 4 {
		t.Fatalf("completed %d/4", len(done))
	}
	slices.Sort(done)
	for i := 1; i < len(done); i++ {
		if done[i] < done[i-1]+1 {
			t.Fatalf("service rate violated: %v", done)
		}
	}
}

// TestPartitionServiceRate pins that a partition admits exactly ServiceRate
// starts per cycle: with rate 2, two requests start in cycle c and the third
// waits for c+1. (The rate used to be ignored above 1, admitting any number
// of starts per cycle.) Every access hits a warmed line, so each start is its
// completion minus the LLC latency.
func TestPartitionServiceRate(t *testing.T) {
	eng := sim.NewEngine()
	p := newTestPartition(eng)
	p.Cfg.ServiceRate = 2
	p.LLC.Access(0)
	start := func(i int) sim.Cycle {
		return eng.Now() + p.AccessDelay(uint64(8*i)) - p.Cfg.LLCLatency
	}
	const c = 10
	var starts []sim.Cycle
	eng.At(c, func() {
		for i := 0; i < 5; i++ {
			starts = append(starts, start(i))
		}
	})
	eng.Run(0)
	want := []sim.Cycle{c, c, c + 1, c + 1, c + 2}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("service starts = %v, want %v", starts, want)
		}
	}
	// A later cycle with a free slot starts at once, with a full budget.
	eng.At(c+5, func() { starts = append(starts[:0], start(0), start(1), start(2)) })
	eng.Run(0)
	if starts[0] != c+5 || starts[1] != c+5 || starts[2] != c+6 {
		t.Fatalf("service starts at cycle %d = %v, want [%d %d %d]", c+5, starts, c+5, c+5, c+6)
	}
}

func TestPartitionAtomicCAS(t *testing.T) {
	eng := sim.NewEngine()
	p := newTestPartition(eng)
	var results []bool
	eng.Schedule(0, func() {
		// Two competing CAS(0 -> id) on the same lock word: exactly one wins.
		for _, id := range []uint64{1, 2} {
			eng.Schedule(p.AtomicSlot(0x80), func() {
				_, ok := p.CompareAndSwap(0x80, 0, id)
				results = append(results, ok)
			})
		}
	})
	eng.Run(0)
	if len(results) != 2 || !results[0] || results[1] {
		t.Fatalf("CAS results = %v, want [true false]", results)
	}
	if p.Image.Read(0x80) != 1 {
		t.Fatalf("lock word = %d, want 1", p.Image.Read(0x80))
	}
	if p.AtomicsServed != 2 {
		t.Fatalf("atomics served = %d", p.AtomicsServed)
	}
}

func TestPartitionWriteNowReadNow(t *testing.T) {
	eng := sim.NewEngine()
	p := newTestPartition(eng)
	p.WriteNow(0x100, 5)
	if p.ReadNow(0x100) != 5 {
		t.Fatal("WriteNow/ReadNow broken")
	}
	if !p.LLC.Contains(0x100) {
		t.Fatal("WriteNow should touch LLC tags")
	}
}
