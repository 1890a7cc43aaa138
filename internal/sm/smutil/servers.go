package smutil

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/remote"
	"dmx/internal/types"
)

// serverStateKey is the environment state key of the foreign-server
// registry shared by the storage methods that reach remote servers.
const serverStateKey = "smutil.servers"

type serverRegistry struct {
	mu     sync.Mutex
	byName map[string]*remote.Server
}

func servers(env *core.Env) *serverRegistry {
	if v, ok := env.ExtState(serverStateKey); ok {
		return v.(*serverRegistry)
	}
	reg := &serverRegistry{byName: make(map[string]*remote.Server)}
	env.SetExtState(serverStateKey, reg)
	return reg
}

// AttachServer makes a foreign server reachable under name from the
// relations of env whose storage method names it: server=<name> for the
// remote method, servers=...,<name>,... for the partitioned one.
func AttachServer(env *core.Env, name string, srv *remote.Server) {
	reg := servers(env)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.byName[name] = srv
}

// LookupServer returns the foreign server attached to env under name.
func LookupServer(env *core.Env, name string) (*remote.Server, error) {
	reg := servers(env)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	srv, ok := reg.byName[name]
	if !ok {
		return nil, fmt.Errorf("smutil: no foreign server %q attached to this environment", name)
	}
	return srv, nil
}

// DefaultScanBatchSize is how many records one foreign scan round trip
// fetches unless the relation was created with a batch=<n> attribute.
const DefaultScanBatchSize = 100

// ParseBatch reads a foreign-server storage method's batch=<n> attribute.
// Errors name the method's package (<method>sm).
func ParseBatch(method string, attrs core.AttrList) (int, error) {
	spec, ok := attrs.Get("batch")
	if !ok {
		return DefaultScanBatchSize, nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n < 1 || n > 10000 {
		return 0, fmt.Errorf("%ssm: batch must be 1..10000, got %q", method, spec)
	}
	return n, nil
}

// ForeignFetchErr maps a failed foreign fetch to the storage-method
// contract: only the server's key-not-found answer is core.ErrNotFound;
// transport failures and faults are reported as themselves.
func ForeignFetchErr(key types.Key, err error) error {
	if errors.Is(err, remote.ErrKeyNotFound) {
		return fmt.Errorf("%w: %v", core.ErrNotFound, key)
	}
	return fmt.Errorf("smutil: foreign fetch of %v: %w", key, err)
}

// ForeignTable is one table on a foreign server, read by one cursor of a
// ForeignScan.
type ForeignTable struct {
	Client *remote.Client
	Table  string
}

// ForeignScan is a key-sequential access over one or more foreign tables:
// each table is read through a batched cursor, and the cursors are merged
// back into global key order. The remote storage method scans one table;
// the partitioned one scans every shard its routing selects.
type ForeignScan struct {
	eval    *expr.Evaluator
	txn     uint64
	batch   int
	opts    core.ScanOptions
	cursors []*cursor
	after   types.Key // last key returned (global position)
	started bool
	closed  bool
}

// cursor is one table's batched window into its key order.
type cursor struct {
	ForeignTable
	after types.Key
	batch []remote.Entry
	done  bool
}

// NewForeignScan opens a scan over tables that reads through txnID's
// staged writes (0 sees committed state only), fetching batch records per
// round trip and applying opts locally.
func NewForeignScan(ev *expr.Evaluator, txnID uint64, batch int, opts core.ScanOptions, tables []ForeignTable) *ForeignScan {
	sc := &ForeignScan{eval: ev, txn: txnID, batch: batch, opts: opts}
	if opts.Start != nil {
		// Start is inclusive; the remote protocol is exclusive-after, so
		// position every cursor just before Start.
		sc.after = beforeKey(opts.Start)
		sc.started = true
	}
	for _, t := range tables {
		sc.cursors = append(sc.cursors, &cursor{ForeignTable: t, after: sc.after})
	}
	return sc
}

// beforeKey returns a key that sorts immediately before k (exclusive-after
// semantics then include k itself).
func beforeKey(k types.Key) types.Key {
	out := append(types.Key(nil), k...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] > 0 {
			out[i]--
			return append(out, 0xFF)
		}
		out = out[:i]
	}
	return nil
}

// Next implements core.Scan: refill any empty cursor, then pop the
// globally smallest head. Per-cursor strictly-after batching keeps
// concurrent inserts and deletes from skipping or duplicating keys.
func (sc *ForeignScan) Next() (types.Key, types.Record, bool, error) {
	if sc.closed {
		return nil, nil, false, fmt.Errorf("smutil: scan is closed")
	}
	for {
		best := -1
		for ci, c := range sc.cursors {
			if len(c.batch) == 0 && !c.done {
				entries, err := c.Client.ScanBatchTxn(sc.txn, c.Table, c.after, sc.batch)
				if err != nil {
					return nil, nil, false, err
				}
				if len(entries) == 0 {
					c.done = true
					continue
				}
				c.batch = entries
			}
			if len(c.batch) == 0 {
				continue
			}
			if best < 0 || bytes.Compare(c.batch[0].Key, sc.cursors[best].batch[0].Key) < 0 {
				best = ci
			}
		}
		if best < 0 {
			return nil, nil, false, nil
		}
		c := sc.cursors[best]
		e := c.batch[0]
		c.batch = c.batch[1:]
		c.after = types.Key(e.Key)
		key := types.Key(e.Key)
		sc.after = key
		sc.started = true
		if sc.opts.End != nil && key.Compare(sc.opts.End) >= 0 {
			return nil, nil, false, nil
		}
		rec, _, err := types.DecodeRecord(e.Rec)
		if err != nil {
			return nil, nil, false, err
		}
		rec, ok, err := FilterProject(sc.eval, rec, sc.opts.Filter, sc.opts.Params, sc.opts.Fields)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return key, rec, true, nil
		}
	}
}

// Pos implements core.Scan: the global position is the last key returned.
func (sc *ForeignScan) Pos() core.ScanPos {
	if !sc.started {
		return core.ScanPos{0}
	}
	return append(core.ScanPos{1}, sc.after...)
}

// Restore implements core.Scan: every cursor restarts strictly after the
// restored global position (keys at or before it were already returned
// from whichever table held them; remote data may have changed under
// partial rollback, so the batches are refetched).
func (sc *ForeignScan) Restore(pos core.ScanPos) error {
	if len(pos) == 0 {
		return fmt.Errorf("smutil: empty scan position")
	}
	if pos[0] == 0 {
		sc.started = false
		sc.after = nil
	} else {
		sc.started = true
		sc.after = append(types.Key(nil), pos[1:]...)
	}
	for _, c := range sc.cursors {
		c.batch = nil
		c.done = false
		c.after = sc.after
	}
	return nil
}

// Close implements core.Scan.
func (sc *ForeignScan) Close() error {
	sc.closed = true
	return nil
}

var _ core.Scan = (*ForeignScan)(nil)
