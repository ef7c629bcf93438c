package tm

// Transport carries protocol messages between SIMT cores and memory
// partitions. The gpu package implements it over the two crossbars; unit
// tests use fixed-latency fakes.
//
// Every implementation, the fakes included, runs deliver from a later
// engine event, never inside the send call. The protocols rely on it: an
// access sends all of its requests before any reply can land, so a reply
// always sees the access's final outstanding count (WarpTM's remaining)
// and complete sharer masks.
type Transport interface {
	// ToPartition sends bytes of payload from a core to a partition,
	// invoking deliver when the tail flit arrives.
	ToPartition(core, partition, bytes int, deliver func())
	// ToCore sends a reply from a partition back to a core.
	ToCore(partition, core, bytes int, deliver func())
	// BroadcastToCores sends the same payload from a partition to every
	// core (EAPG's signature broadcasts).
	BroadcastToCores(partition, bytes int, deliver func(core int))
}
