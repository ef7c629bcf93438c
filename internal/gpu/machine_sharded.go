package gpu

import (
	"context"
	"fmt"

	"getm/internal/core"
	"getm/internal/isa"
	"getm/internal/mem"
	"getm/internal/sim"
	"getm/internal/simt"
	"getm/internal/stats"
	"getm/internal/tm"
	"getm/internal/xbar"
)

// Sharded execution. The machine is partitioned along its
// natural latency boundary — the 5-cycle crossbars — into one shard domain
// per SIMT core and one per memory partition. Each domain runs its events on
// a private sim.Engine under the ShardedEngine's bounded-slack window
// scheduler; the only cross-domain traffic is crossbar messages (and the
// rollover coordinator's ring messages), all of which carry at least one
// quantum of latency.
//
// Results are deterministic and identical for every -shards value >= 1
// (worker count is physical, not semantic), but they are a distinct
// semantics class from the serial engine: the serial machine couples domains
// through same-cycle global scheduling order in three places no parallel
// execution can reproduce — destination-port crossbar reservations made at
// send time in global send order, dynamic retire-order program dispatch, and
// the synchronous rollover drain. The sharded machine replaces those with
// arrival-order port reservations, static per-core dispatch queues, and a
// message-driven rollover coordinator. DESIGN.md §10 has the full argument.
//
// Only GETM and fglock are shardable: WarpTM's global commit-id allocation
// and in-order retirement, and EAPG's broadcasts, are core-coupling by
// design (see Shardable).
//
// This file holds only what differs from the serial machine: the assembly,
// the per-partition stall-max sum and the rollover count. The GETM assembly
// stays outside policy.Build on purpose — it needs one protocol per core and
// one stall tracker per partition, so sharing it would make Build branch on
// its caller. The run loop (runMachine), the shared metric tallies
// (collectShared) and the VU invariant check (checkVUs) are the serial
// machine's.

// Shardable reports whether cfg can run on the sharded machine; configs that
// cannot silently fall back to the serial engine regardless of Shards.
// Callers that key results by configuration (the store) use it to decide
// which semantics class a run with Shards > 0 actually executed.
func Shardable(cfg Config) bool {
	return (cfg.Protocol == ProtoGETM || cfg.Protocol == ProtoFGLock) &&
		!cfg.Record && cfg.Trace == nil && cfg.Xbar.Latency > 0
}

// shardedMachine mirrors machine for the domain-partitioned assembly.
type shardedMachine struct {
	cfg        Config
	se         *sim.ShardedEngine
	img        *mem.Image
	amap       mem.AddressMap
	pair       *xbar.ShardedPair
	partitions []*mem.Partition

	// GETM state: one protocol instance per core (each confined to its
	// domain), shared VU/CU slices (each confined to its partition's domain).
	protos []*core.Protocol
	vus    []*core.VU
	cus    []*core.CU
	stalls []*core.OccTracker // per partition (a shared tracker would race)

	memsys []*memSystem // per core
	coord  *rolloverCoord
}

func (m *shardedMachine) coreDom(c int) int { return c }
func (m *shardedMachine) partDom(p int) int { return m.cfg.Cores + p }

// newShardedMachine assembles the domain-partitioned machine. img must
// already be in shared mode.
func newShardedMachine(se *sim.ShardedEngine, img *mem.Image, cfg Config) *shardedMachine {
	m := &shardedMachine{
		cfg:  cfg,
		se:   se,
		img:  img,
		amap: mem.AddressMap{Partitions: cfg.Partitions, LineBytes: cfg.LineBytes},
	}
	coreDoms := make([]int, cfg.Cores)
	partDoms := make([]int, cfg.Partitions)
	for i := range coreDoms {
		coreDoms[i] = m.coreDom(i)
	}
	for p := range partDoms {
		partDoms[p] = m.partDom(p)
	}
	m.pair = xbar.NewShardedPair(se, cfg.Cores, cfg.Partitions, cfg.Xbar, coreDoms, partDoms)
	for p := 0; p < cfg.Partitions; p++ {
		m.partitions = append(m.partitions, mem.NewPartition(p, se.Domain(m.partDom(p)), img, cfg.Partition))
	}
	for c := 0; c < cfg.Cores; c++ {
		m.memsys = append(m.memsys, &memSystem{
			amap:       m.amap,
			img:        img,
			partitions: m.partitions,
			upSend: func(core, part, bytes int, deliver func()) {
				m.pair.Up.Send(core, part, bytes, deliver)
			},
			downSend: func(part, core, bytes int, deliver func()) {
				m.pair.Down.Send(part, core, bytes, deliver)
			},
			partSched: func(part int, delay sim.Cycle, fn func()) {
				se.Domain(m.partDom(part)).Schedule(delay, fn)
			},
		})
	}

	switch cfg.Protocol {
	case ProtoGETM:
		rng := sim.NewRNG(cfg.Seed ^ 0xC0FFEE)
		for p, part := range m.partitions {
			vu := core.NewVU(cfg.GETM, se.Domain(m.partDom(p)), part,
				cfg.GETM.PreciseEntries/cfg.Partitions, cfg.GETM.ApproxEntries/cfg.Partitions,
				rng.Fork(uint64(p)))
			tracker := &core.OccTracker{}
			vu.Stall.SetTracker(tracker)
			m.stalls = append(m.stalls, tracker)
			m.vus = append(m.vus, vu)
			m.cus = append(m.cus, core.NewCU(cfg.GETM, se.Domain(m.partDom(p)), part, vu))
		}
		trans := &shardedTransport{m: m}
		for c := 0; c < cfg.Cores; c++ {
			p := core.NewProtocol(cfg.GETM, se.Domain(m.coreDom(c)), m.amap, trans, m.vus, m.cus)
			// Commit-log acks hop back from the commit unit's domain to this
			// core's over the down crossbar's latency.
			p.AckHop = func(part, core int, fn func()) {
				se.Send(m.partDom(part), m.coreDom(core), cfg.Xbar.Latency, fn)
			}
			m.protos = append(m.protos, p)
		}
		m.coord = newRolloverCoord(m)
	case ProtoFGLock:
		// lockStub is stateless; nothing to build.
	default:
		panic(fmt.Sprintf("gpu: protocol %q is not shardable", cfg.Protocol))
	}
	return m
}

// protocolFor returns core c's tm.Protocol.
func (m *shardedMachine) protocolFor(c int) tm.Protocol {
	if m.cfg.Protocol == ProtoFGLock {
		return lockStub{}
	}
	return m.protos[c]
}

// checkInvariants runs the serial machine's VU check over every partition.
func (m *shardedMachine) checkInvariants() error { return checkVUs(m.vus) }

// collect adds the sharded GETM counters to the shared tallies. One
// deliberate metric deviation: StallBufMaxOccupancy is the sum of
// per-partition maxima rather than the maximum concurrent total — a
// GPU-wide concurrent total is exactly the kind of same-cycle global
// observation sharding removes.
func (m *shardedMachine) collect(cores []*simt.Core, end sim.Cycle) *stats.Metrics {
	up, down := m.pair.TrafficBytes()
	out := collectShared(cores, end, up, down, m.partitions, m.vus)
	if m.coord != nil {
		for _, tr := range m.stalls {
			out.StallBufMaxOccupancy += uint64(tr.Max)
		}
		out.Extra.Inc("rollovers", m.coord.rounds)
	}
	return out
}

// shardedTransport adapts the sharded crossbar pair to tm.Transport.
type shardedTransport struct{ m *shardedMachine }

func (t *shardedTransport) ToPartition(core, partition, bytes int, deliver func()) {
	t.m.pair.Up.Send(core, partition, bytes, deliver)
}

func (t *shardedTransport) ToCore(partition, core, bytes int, deliver func()) {
	t.m.pair.Down.Send(partition, core, bytes, deliver)
}

func (t *shardedTransport) BroadcastToCores(partition, bytes int, deliver func(core int)) {
	t.m.pair.Down.Broadcast(partition, bytes, deliver)
}

// shardedDispatch deals programs to per-core queues up front: the first
// Cores×WarpsPerCore programs fill exactly as the serial machine's initial
// Start pass (core-major, slot order), and the remainder is dealt round-robin
// one program per core. The serial machine instead refills dynamically in
// retire order — a global ordering only a serial engine can observe — so this
// is one of the sharded semantics-class differences.
func shardedDispatch(cfg Config, programs []*isa.Program) func(coreID, slot int) *isa.Program {
	queues := make([][]*isa.Program, cfg.Cores)
	i := 0
	for c := 0; c < cfg.Cores && i < len(programs); c++ {
		for s := 0; s < cfg.Core.WarpsPerCore && i < len(programs); s++ {
			queues[c] = append(queues[c], programs[i])
			i++
		}
	}
	for c := 0; i < len(programs); i, c = i+1, (c+1)%cfg.Cores {
		queues[c] = append(queues[c], programs[i])
	}
	return func(coreID, slot int) *isa.Program {
		q := queues[coreID]
		if len(q) == 0 {
			return nil
		}
		queues[coreID] = q[1:]
		return q[0]
	}
}

// --- rollover coordinator ---------------------------------------------------

// shardRingHop mirrors core.ringHopLatency for the coordinator's message
// delays (the VU ring hop cost, cycles).
const shardRingHop sim.Cycle = 10

// rolloverCoord replaces the serial machine's synchronous rollover state
// machine with ring-delay messages between shard domains: a VU high-water
// trigger travels to the coordinator (which lives in partition 0's domain),
// the coordinator closes every core's admission gate and waits for per-core
// idle reports, then commands the metadata flush on every partition and the
// clock reset/resume on every core.
type rolloverCoord struct {
	m *shardedMachine
	// Coordinator-domain state (partition 0's domain).
	active   bool
	idleLeft int
	rounds   uint64
	// triggered[p] is owned by partition p's domain and suppresses duplicate
	// trigger messages until the flush clears it.
	triggered []bool
}

func newRolloverCoord(m *shardedMachine) *rolloverCoord {
	rc := &rolloverCoord{m: m, triggered: make([]bool, m.cfg.Partitions)}
	coordDom := m.partDom(0)
	ringDelay := sim.Cycle(2*m.cfg.Partitions) * shardRingHop
	for p, vu := range m.vus {
		p := p
		vu.SetHighWaterHook(func() {
			if rc.triggered[p] {
				return
			}
			rc.triggered[p] = true
			rc.m.se.Send(rc.m.partDom(p), coordDom, ringDelay, rc.begin)
		})
	}
	return rc
}

// begin runs in the coordinator's domain: close every core's gate and wait
// for idle reports.
func (rc *rolloverCoord) begin() {
	if rc.active {
		return
	}
	rc.active = true
	rc.idleLeft = rc.m.cfg.Cores
	coordDom := rc.m.partDom(0)
	for c := 0; c < rc.m.cfg.Cores; c++ {
		c := c
		rc.m.se.Send(coordDom, rc.m.coreDom(c), shardRingHop, func() {
			rc.m.protos[c].BeginDrainRemote(func() {
				rc.m.se.Send(rc.m.coreDom(c), coordDom, shardRingHop, rc.coreIdle)
			})
		})
	}
}

// coreIdle runs in the coordinator's domain once per drained core.
func (rc *rolloverCoord) coreIdle() {
	rc.idleLeft--
	if rc.idleLeft > 0 {
		return
	}
	coordDom := rc.m.partDom(0)
	for p := range rc.m.vus {
		p := p
		rc.m.se.Send(coordDom, rc.m.partDom(p), shardRingHop, func() {
			vu := rc.m.vus[p]
			if vu.Stall.Occupancy() != 0 {
				panic("gpu: rollover flush with occupied stall buffer")
			}
			vu.Meta.Flush()
			rc.triggered[p] = false
		})
	}
	for c := 0; c < rc.m.cfg.Cores; c++ {
		c := c
		rc.m.se.Send(coordDom, rc.m.coreDom(c), shardRingHop, func() {
			rc.m.protos[c].ResumeFromDrain()
		})
	}
	rc.rounds++
	// Reopen the coordinator only after the flush/resume wave has landed, so
	// a re-trigger cannot interleave with an in-flight round.
	rc.m.se.Send(coordDom, coordDom, 2*shardRingHop, func() { rc.active = false })
}

// runSharded is RunContext's assembly of the sharded machine around the
// initialized image; the run itself is the shared runMachine loop, minus
// the features Shardable excludes (tracing, committed-transaction
// recording).
func runSharded(ctx context.Context, cfg Config, k *Kernel, img *mem.Image) (*Result, error) {
	se := sim.NewSharded(cfg.Cores+cfg.Partitions, cfg.Xbar.Latency)
	defer se.Close()
	se.SetWorkers(cfg.Shards)
	img.SetShared()

	m := newShardedMachine(se, img, cfg)
	dispatch := shardedDispatch(cfg, k.Programs)
	rng := sim.NewRNG(cfg.Seed)
	cores := make([]*simt.Core, cfg.Cores)
	for i := range cores {
		cores[i] = simt.NewCore(i, se.Domain(m.coreDom(i)), cfg.Core, m.protocolFor(i),
			m.memsys[i], rng.Fork(uint64(1000+i)), dispatch)
	}
	return runMachine(ctx, cfg, k, se, m, cores, img, nil)
}
