package em

import "sync/atomic"

// ScopeStats tallies the block transfers of one logical unit of work — a
// query — on top of the disk-global Stats. A scope is attached to an Env
// (Env.WithScope; OpenRecordReader reads shared files under it) or to one
// file (NewFileScoped); every transfer performed through a scoped stream
// is charged both to the disk's global counters and to the scope. Safe for
// concurrent use; a nil *ScopeStats is valid and charges nothing, so
// unscoped code paths pay only a nil check.
type ScopeStats struct {
	reads  atomic.Uint64
	writes atomic.Uint64
}

func (s *ScopeStats) addRead() {
	if s != nil {
		s.reads.Add(1)
	}
}

func (s *ScopeStats) addWrite() {
	if s != nil {
		s.writes.Add(1)
	}
}

// Add charges a batch of transfers performed outside the scope's own
// streams — e.g. a sharded query's traffic on its ephemeral per-shard
// disks — so the scope stays the complete per-query tally. Safe for
// concurrent use; a nil receiver charges nothing.
func (s *ScopeStats) Add(st Stats) {
	if s == nil {
		return
	}
	s.reads.Add(st.Reads)
	s.writes.Add(st.Writes)
}

// Stats returns the transfers charged to the scope so far.
func (s *ScopeStats) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{Reads: s.reads.Load(), Writes: s.writes.Load()}
}
