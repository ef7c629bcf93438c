package workloads

import (
	"fmt"

	"getm/internal/gpu"
	"getm/internal/isa"
	"getm/internal/mem"
)

// buildHashTable models the HT benchmarks: every thread inserts one node at
// the head of a hashed bucket chain. bucketFactor scales the table size
// relative to the insert count — 1 reproduces HT-H (the paper's ~8K inserts
// into an 8K-entry table), 10 HT-M, 100 HT-L. Contention comes from bucket
// collisions plus conflict-granularity false sharing (4 buckets per 32-byte
// granule), exactly the effect the paper's Fig 14 granularity sweep studies.
//
// Node layout: node i occupies two words at nodeBase+16*i — [next, payload].
// A bucket word holds the head node address (0 = empty).

// HT operand slots.
const (
	htBucket = iota
	htNext
	htPayload
	htLock
	htAddrSlots
)

const (
	htImmNode = iota
	htImmKey
	htImmSlots
)

func buildHashTable(name string, v Variant, p Params, bucketFactor float64) *gpu.Kernel {
	inserts := padWarps(p.scaled(7680))
	buckets := int(float64(inserts) * bucketFactor)
	if buckets < 8 {
		buckets = 8
	}

	r := newRegion()
	bucketBase := r.array(buckets)
	nodeBase := r.array(2 * inserts)
	lockBase := r.array(buckets)

	rng := rngFor(p, 1)
	lanes := make([]laneOperands, inserts)
	for t := 0; t < inserts; t++ {
		key := rng.Uint64()
		b := int(key % uint64(buckets))
		addrs := make([]uint64, htAddrSlots)
		addrs[htBucket] = bucketBase + uint64(b)*mem.WordBytes
		addrs[htNext] = nodeBase + uint64(2*t)*mem.WordBytes
		addrs[htPayload] = nodeBase + uint64(2*t+1)*mem.WordBytes
		addrs[htLock] = lockBase + uint64(b)*mem.WordBytes
		imms := make([]int64, htImmSlots)
		imms[htImmNode] = int64(nodeBase + uint64(2*t)*mem.WordBytes)
		imms[htImmKey] = int64(key & 0x7FFFFFFF)
		lanes[t] = laneOperands{addrs: addrs, imms: imms}
	}

	var progs []*isa.Program
	for w := 0; w < inserts/isa.WarpWidth; w++ {
		ls := lanes[w*isa.WarpWidth : (w+1)*isa.WarpWidth]
		b := isa.NewBuilder().
			Compute(30). // hash computation
			StoreImm(perLaneImm(ls, htImmKey), perLane(ls, htPayload))
		insert := func(nb *isa.Builder) *isa.Builder {
			return nb.
				Load(1, perLane(ls, htBucket)).
				Store(1, perLane(ls, htNext)).
				StoreImm(perLaneImm(ls, htImmNode), perLane(ls, htBucket))
		}
		if v == TM {
			b.TxBegin()
			insert(b)
			b.TxCommit()
		} else {
			locks := make([][]uint64, isa.WarpWidth)
			for i := range ls {
				locks[i] = []uint64{ls[i].addrs[htLock]}
			}
			b.CritSection(locks, insert(isa.NewBuilder()).Ops())
		}
		progs = append(progs, b.MustBuild())
	}

	return &gpu.Kernel{
		Name:     name,
		Programs: progs,
		Verify: func(img *mem.Image) error {
			// Node i is at nodeBase+16i; visited is a bitmap over i.
			visited := make([]uint64, (inserts+63)/64)
			total := 0
			for b := 0; b < buckets; b++ {
				cur := img.Read(bucketBase + uint64(b)*mem.WordBytes)
				for cur != 0 {
					off := cur - nodeBase
					if cur < nodeBase || off%16 != 0 || off/16 >= uint64(inserts) {
						return fmt.Errorf("link %#x is not a node", cur)
					}
					i := off / 16
					if visited[i/64]&(1<<(i%64)) != 0 {
						return fmt.Errorf("node %#x linked twice (lost/duplicated insert)", cur)
					}
					visited[i/64] |= 1 << (i % 64)
					total++
					if total > inserts {
						return fmt.Errorf("chain walk exceeded %d inserts (cycle?)", inserts)
					}
					cur = img.Read(cur) // next pointer at offset 0
				}
			}
			if total != inserts {
				return fmt.Errorf("reachable nodes = %d, want %d (lost inserts)", total, inserts)
			}
			return nil
		},
	}
}
