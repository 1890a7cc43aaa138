// Package smutil holds the building blocks storage methods and access path
// extensions share, each once: a key-sequential scan over a btree.Tree with
// the architecture's position semantics, the in-memory tree store,
// filter-and-project, the key-field codec, and the foreign-server registry
// with its batched scan.
package smutil

import (
	"fmt"
	"sync"

	"dmx/internal/btree"
	"dmx/internal/core"
	"dmx/internal/types"
)

// EmitFunc converts a tree entry into scan output. Returning ok=false
// skips the entry (filter rejection); err aborts the scan.
type EmitFunc func(key, val []byte) (types.Key, types.Record, bool, error)

// TreeScan is a key-sequential access over a btree.Tree implementing the
// architecture's scan-position semantics: the scan is "on" the last item
// returned; deleting that item leaves the scan just after it; Next always
// returns the next item after the current position. Positions are
// save/restorable for partial-rollback support.
type TreeScan struct {
	mu    *sync.Mutex // latch shared with the owning instance
	tree  *btree.Tree
	start types.Key
	end   types.Key // exclusive; nil = unbounded
	emit  EmitFunc

	started bool
	pos     []byte // key of the item the scan is on
	closed  bool
}

// NewTreeScan starts a scan over tree bounded by [start, end) whose
// entries are rendered through emit. mu is the latch protecting tree.
func NewTreeScan(mu *sync.Mutex, tree *btree.Tree, start, end types.Key, emit EmitFunc) *TreeScan {
	return &TreeScan{mu: mu, tree: tree, start: start, end: end, emit: emit}
}

// Next implements core.Scan.
func (s *TreeScan) Next() (types.Key, types.Record, bool, error) {
	if s.closed {
		return nil, nil, false, fmt.Errorf("smutil: scan is closed")
	}
	for {
		s.mu.Lock()
		var from []byte
		skipEqual := false
		if s.started {
			from = s.pos
			skipEqual = true
		} else if s.start != nil {
			from = s.start
		}
		// Collect the next candidate under the latch.
		var ck, cv []byte
		found := false
		s.tree.Ascend(from, func(k, v []byte) bool {
			if skipEqual && types.Key(k).Equal(types.Key(s.pos)) {
				return true
			}
			if s.end != nil && types.Key(k).Compare(s.end) >= 0 {
				return false
			}
			ck = append([]byte(nil), k...)
			cv = append([]byte(nil), v...)
			found = true
			return false
		})
		s.mu.Unlock()
		if !found {
			return nil, nil, false, nil
		}
		s.started = true
		s.pos = ck
		outK, outR, ok, err := s.emit(ck, cv)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return outK, outR, true, nil
		}
		// Entry filtered out: advance past it.
	}
}

// Pos implements core.Scan: the opaque saved position.
func (s *TreeScan) Pos() core.ScanPos {
	if !s.started {
		return core.ScanPos{0}
	}
	return append(core.ScanPos{1}, s.pos...)
}

// Restore implements core.Scan.
func (s *TreeScan) Restore(pos core.ScanPos) error {
	if len(pos) == 0 {
		return fmt.Errorf("smutil: empty scan position")
	}
	switch pos[0] {
	case 0:
		s.started = false
		s.pos = nil
	case 1:
		s.started = true
		s.pos = append([]byte(nil), pos[1:]...)
	default:
		return fmt.Errorf("smutil: bad scan position tag %d", pos[0])
	}
	return nil
}

// Close implements core.Scan.
func (s *TreeScan) Close() error {
	s.closed = true
	return nil
}

var _ core.Scan = (*TreeScan)(nil)
