// Package partsm implements the partitioned relation storage method: a
// relation hash-sharded across N foreign servers behind the ordinary
// storage-method procedure vector, the scale-out composition of the
// paper's foreign-database storage method.
//
// Direct-by-key operations route to the single shard owning the key
// (FNV-1a of the order-preserving key encoding modulo the shard count);
// key-sequential scans scatter to every shard and merge the per-shard
// cursors back into global key order. Multi-shard transactions commit
// with two-phase commit: writes are staged on the shards under the local
// transaction id, every touched shard is prepared before the local
// commit record is appended, and the commit record — forced by the
// existing WAL group-commit machinery — IS the coordinator's logged
// decision. Recovery resolves shards left in doubt by a crash between
// prepare and decision delivery from the surviving log (presumed abort:
// no commit record means abort).
package partsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/fault"
	"dmx/internal/remote"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// Name is the DDL name of the storage method.
const Name = "part"

// MaxShards bounds the shards=<n> attribute.
const MaxShards = 64

// ErrDuplicateKey is returned when inserting a record whose key fields
// collide with an existing record (the key fields are the primary key).
var ErrDuplicateKey = smutil.ErrDuplicateKey

func init() {
	core.RegisterStorageMethod(&core.StorageOps{
		ID:   core.SMPart,
		Name: Name,
		// Shard contents live on the remote servers, but every
		// modification is logged locally and checkpoints embed the full
		// contents, so a crash that loses the servers can rebuild every
		// shard from the local log alone. That also means attachments can
		// be rebuilt by scanning at restart (servers are attached before
		// Recover), so attachment log records are not replayed.
		SnapshotContents: true,
		ValidateAttrs: func(schema *types.Schema, attrs core.AttrList) error {
			if err := attrs.CheckAllowed(Name, "key", "shards", "servers", "batch"); err != nil {
				return err
			}
			if _, err := smutil.ParseKeyAttr(Name, schema, attrs); err != nil {
				return err
			}
			if _, _, err := parseShardAttrs(attrs); err != nil {
				return err
			}
			_, err := smutil.ParseBatch(Name, attrs)
			return err
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, attrs core.AttrList) ([]byte, error) {
			fields, err := smutil.ParseKeyAttr(Name, rd.Schema, attrs)
			if err != nil {
				return nil, err
			}
			shards, names, err := parseShardAttrs(attrs)
			if err != nil {
				return nil, err
			}
			batch, err := smutil.ParseBatch(Name, attrs)
			if err != nil {
				return nil, err
			}
			for i := 0; i < shards; i++ {
				srv, err := smutil.LookupServer(env, names[i%len(names)])
				if err != nil {
					return nil, err
				}
				client := remote.Dial(srv)
				err = client.CreateTable(shardTable(rd.Name, i))
				client.Close()
				if err != nil {
					return nil, err
				}
			}
			return encodeDesc(fields, shards, names, batch), nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.StorageInstance, error) {
			fields, shards, names, batch, err := decodeDesc(rd.SMDesc)
			if err != nil {
				return nil, err
			}
			s := &store{
				env:       env,
				rd:        rd,
				keyFields: fields,
				batch:     batch,
				sessions:  make(map[wal.TxnID]*session),
				pending:   make(map[uint64]bool),
			}
			for i := 0; i < shards; i++ {
				name := names[i%len(names)]
				srv, err := smutil.LookupServer(env, name)
				if err != nil {
					return nil, err
				}
				client := remote.Dial(srv)
				// Shard servers are volatile: a restart reattaches them
				// empty, and log replay only touches shards with logged
				// records. Creating the table is idempotent and keeps
				// scans over untouched shards from failing.
				if err := client.CreateTable(shardTable(rd.Name, i)); err != nil {
					client.Close()
					return nil, err
				}
				s.shards = append(s.shards, shard{
					ForeignTable: smutil.ForeignTable{Client: client, Table: shardTable(rd.Name, i)},
					server:       name,
					srv:          srv,
				})
			}
			return s, nil
		},
		Drop: func(env *core.Env, rd *core.RelDesc) error {
			_, shards, names, _, err := decodeDesc(rd.SMDesc)
			if err != nil {
				return err
			}
			for i := 0; i < shards; i++ {
				srv, err := smutil.LookupServer(env, names[i%len(names)])
				if err != nil {
					continue // server gone: nothing left to drop
				}
				client := remote.Dial(srv)
				client.DropTable(shardTable(rd.Name, i))
				client.Close()
			}
			return nil
		},
		AfterRecovery: Resolve,
	})
}

func shardTable(relName string, i int) string {
	return fmt.Sprintf("%s#%d", relName, i)
}

func parseShardAttrs(attrs core.AttrList) (shards int, names []string, err error) {
	spec, ok := attrs.Get("servers")
	if !ok || spec == "" {
		return 0, nil, fmt.Errorf("partsm: the part storage method requires a servers=<name>,... attribute")
	}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return 0, nil, fmt.Errorf("partsm: empty server name in servers=%q", spec)
		}
		names = append(names, name)
	}
	shards = len(names)
	if spec, ok := attrs.Get("shards"); ok {
		n, err := strconv.Atoi(spec)
		if err != nil || n < 1 || n > MaxShards {
			return 0, nil, fmt.Errorf("partsm: shards must be 1..%d, got %q", MaxShards, spec)
		}
		shards = n
	}
	return shards, names, nil
}

func encodeDesc(fields []int, shards int, names []string, batch int) []byte {
	out := smutil.AppendKeyFields(nil, fields)
	out = append(out, byte(shards))
	out = binary.BigEndian.AppendUint16(out, uint16(batch))
	out = append(out, byte(len(names)))
	for _, n := range names {
		out = append(out, byte(len(n)))
		out = append(out, n...)
	}
	return out
}

func decodeDesc(b []byte) (fields []int, shards int, names []string, batch int, err error) {
	bad := func() ([]int, int, []string, int, error) {
		return nil, 0, nil, 0, fmt.Errorf("partsm: truncated storage descriptor")
	}
	fields, b, ok := smutil.DecodeKeyFields(b)
	if !ok || len(b) < 4 {
		return bad()
	}
	shards = int(b[0])
	batch = int(binary.BigEndian.Uint16(b[1:]))
	nn := int(b[3])
	pos := 4
	for i := 0; i < nn; i++ {
		if len(b) < pos+1 {
			return bad()
		}
		ln := int(b[pos])
		pos++
		if len(b) < pos+ln {
			return bad()
		}
		names = append(names, string(b[pos:pos+ln]))
		pos += ln
	}
	if shards < 1 || batch < 1 || len(names) < 1 {
		return bad()
	}
	return fields, shards, names, batch, nil
}

// shard is one partition's backend binding: its table on its server.
type shard struct {
	smutil.ForeignTable
	server string
	srv    *remote.Server
}

// session tracks one local transaction's footprint across the shards, so
// prepare and the decision are delivered only where writes were staged.
type session struct {
	touched map[int]bool
}

// store is the partitioned storage instance for one relation.
type store struct {
	env       *core.Env
	rd        *core.RelDesc
	keyFields []int
	batch     int
	shards    []shard

	mu       sync.Mutex
	sessions map[wal.TxnID]*session
	// pending remembers decided transactions whose decision delivery
	// failed on some shard (true = commit): Resolve redelivers them. It
	// covers in-process delivery failures; across a restart the WAL's
	// commit records are the authoritative decision history.
	pending map[uint64]bool
}

// KeyOf composes the record key from the record's key fields.
func (s *store) KeyOf(rec types.Record) types.Key {
	return types.EncodeKeyFields(rec, s.keyFields)
}

// shardOf routes a record key to its owning shard.
func (s *store) shardOf(key types.Key) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(len(s.shards)))
}

func txnID(tx *txn.Txn) uint64 {
	if tx == nil {
		return 0
	}
	return uint64(tx.ID())
}

// ensure registers the transaction's 2PC session on first write: the
// prepare/decision/cleanup hooks subscribe to the transaction's commit
// pipeline once, and the touched-shard set starts accumulating.
func (s *store) ensure(tx *txn.Txn) (*session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[tx.ID()]
	if ok {
		s.mu.Unlock()
		return sess, nil
	}
	sess = &session{touched: make(map[int]bool)}
	s.sessions[tx.ID()] = sess
	s.mu.Unlock()
	if err := tx.Subscribe(txn.EventBeforePrepare, func(tx *txn.Txn, _ string) error {
		return s.prepare(tx, sess)
	}); err != nil {
		return nil, err
	}
	if err := tx.Subscribe(txn.EventCommit, func(tx *txn.Txn, _ string) error {
		s.decide(tx, sess, true)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tx.Subscribe(txn.EventAbort, func(tx *txn.Txn, _ string) error {
		s.decide(tx, sess, false)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tx.Subscribe(txn.EventEnd, func(tx *txn.Txn, _ string) error {
		s.mu.Lock()
		delete(s.sessions, tx.ID())
		s.mu.Unlock()
		return nil
	}); err != nil {
		return nil, err
	}
	return sess, nil
}

// prepare is phase one, fired before the commit record is appended: every
// touched shard must promise the staged writes can commit. A refusal
// vetoes the commit. The part.decide fault site sits between the last
// prepare acknowledgement and the local decision append — a crash there
// leaves every touched shard prepared and in doubt.
func (s *store) prepare(tx *txn.Txn, sess *session) error {
	for _, i := range sortedShards(sess) {
		s.env.Obs.Part.Prepares.Add(1)
		if err := s.shards[i].Client.Prepare(uint64(tx.ID())); err != nil {
			return fmt.Errorf("partsm: shard %d prepare: %w", i, err)
		}
	}
	if s.env.Faults != nil && len(sess.touched) > 0 {
		if err := s.env.Faults.Hit(fault.SitePartDecide); err != nil {
			return err
		}
	}
	return nil
}

// decide is phase two, fired after the local decision is durable (commit)
// or the rollback is complete (abort). Delivery failures cannot change
// the decision — the transaction has already committed or aborted
// locally — so they are counted, remembered for redelivery, and
// swallowed.
func (s *store) decide(tx *txn.Txn, sess *session, commit bool) {
	var lost bool
	for _, i := range sortedShards(sess) {
		var err error
		if commit {
			s.env.Obs.Part.Commits.Add(1)
			err = s.shards[i].Client.CommitTxn(uint64(tx.ID()))
		} else {
			s.env.Obs.Part.Aborts.Add(1)
			err = s.shards[i].Client.AbortTxn(uint64(tx.ID()))
		}
		if err != nil {
			s.env.Obs.Part.AckLost.Add(1)
			lost = true
		}
	}
	if lost {
		s.mu.Lock()
		s.pending[uint64(tx.ID())] = commit
		s.mu.Unlock()
	}
}

func sortedShards(sess *session) []int {
	out := make([]int, 0, len(sess.touched))
	for i := range sess.touched {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// checkAbsent probes shard sh for key under tx's staged view before a
// write claims it. Only the server's key-not-found answer means the key is
// free: any other failure fails the write, since reading it as "absent"
// would let the write overwrite a committed record.
func (s *store) checkAbsent(tx *txn.Txn, sh int, key types.Key, rec types.Record) error {
	_, err := s.shards[sh].Client.GetTxn(uint64(tx.ID()), s.shards[sh].Table, key)
	switch {
	case err == nil:
		return fmt.Errorf("%w: %v", ErrDuplicateKey, rec.Project(s.keyFields))
	case errors.Is(err, remote.ErrKeyNotFound):
		return nil
	default:
		return fmt.Errorf("partsm: shard %d duplicate-key probe: %w", sh, err)
	}
}

// Insert implements core.StorageInstance: the record is staged on its
// owning shard under the transaction id, invisible to other transactions
// until the commit decision reaches the shard.
func (s *store) Insert(tx *txn.Txn, rec types.Record) (types.Key, error) {
	key := s.KeyOf(rec)
	sh := s.shardOf(key)
	sess, err := s.ensure(tx)
	if err != nil {
		return nil, err
	}
	if err := s.checkAbsent(tx, sh, key, rec); err != nil {
		return nil, err
	}
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModInsert, Key: key, New: rec}); err != nil {
		return nil, err
	}
	if err := s.shards[sh].Client.StagePut(uint64(tx.ID()), s.shards[sh].Table, key, rec); err != nil {
		return nil, err
	}
	sess.touched[sh] = true
	return key, nil
}

// Update implements core.StorageInstance: updating key fields moves the
// record to its new key's owning shard — a genuinely multi-shard write.
func (s *store) Update(tx *txn.Txn, key types.Key, oldRec, newRec types.Record) (types.Key, error) {
	newKey := s.KeyOf(newRec)
	oldShard, newShard := s.shardOf(key), s.shardOf(newKey)
	sess, err := s.ensure(tx)
	if err != nil {
		return nil, err
	}
	if !newKey.Equal(key) {
		if err := s.checkAbsent(tx, newShard, newKey, newRec); err != nil {
			return nil, err
		}
	}
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModUpdate, Key: key, NewKey: newKey, Old: oldRec, New: newRec}); err != nil {
		return nil, err
	}
	if !newKey.Equal(key) {
		if err := s.shards[oldShard].Client.StageDelete(uint64(tx.ID()), s.shards[oldShard].Table, key); err != nil {
			return nil, err
		}
		sess.touched[oldShard] = true
	}
	if err := s.shards[newShard].Client.StagePut(uint64(tx.ID()), s.shards[newShard].Table, newKey, newRec); err != nil {
		return nil, err
	}
	sess.touched[newShard] = true
	return newKey, nil
}

// Delete implements core.StorageInstance: a tombstone is staged on the
// owning shard.
func (s *store) Delete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	sh := s.shardOf(key)
	sess, err := s.ensure(tx)
	if err != nil {
		return err
	}
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModDelete, Key: key, Old: oldRec}); err != nil {
		return err
	}
	if err := s.shards[sh].Client.StageDelete(uint64(tx.ID()), s.shards[sh].Table, key); err != nil {
		return err
	}
	sess.touched[sh] = true
	return nil
}

// FetchByKey implements core.StorageInstance: one round trip to the
// single shard owning the key, overlaying the transaction's own staged
// writes; the filter runs locally on the fetched record.
func (s *store) FetchByKey(tx *txn.Txn, key types.Key, fields []int, filter *expr.Expr) (types.Record, error) {
	sh := s.shardOf(key)
	s.env.Obs.Part.RoutedReads.Add(1)
	rec, err := s.shards[sh].Client.GetTxn(txnID(tx), s.shards[sh].Table, key)
	if err != nil {
		return nil, smutil.ForeignFetchErr(key, err)
	}
	return smutil.FetchFiltered(s.env.Eval, rec, fields, filter)
}

// fullKeyLen walks the order-preserving key encoding and returns the
// number of complete field encodings it holds, or -1 when it ends inside
// a field. Scan routing uses it to distinguish a whole-key bound (safe
// to route to one shard) from an equality prefix over leading key fields
// (whose matching keys hash to arbitrary shards).
func fullKeyLen(b []byte) int {
	n := 0
	for len(b) > 0 {
		switch types.Kind(b[0]) {
		case types.KindNull:
			b = b[1:]
		case types.KindInt, types.KindBool, types.KindFloat:
			if len(b) < 9 {
				return -1
			}
			b = b[9:]
		case types.KindString, types.KindBytes:
			b = b[1:]
			for {
				if len(b) == 0 {
					return -1
				}
				if b[0] != 0x00 {
					b = b[1:]
					continue
				}
				if len(b) < 2 {
					return -1
				}
				if b[1] == 0x00 {
					b = b[2:] // terminator
					break
				}
				b = b[2:] // escaped 0x00
			}
		default:
			return -1
		}
		n++
	}
	return n
}

// OpenScan implements core.StorageInstance. A scan whose bounds pin a
// single whole key ([k, successor(k)) — the planner's point access) is
// routed to the key's owning shard; the key encoding is prefix-free per
// field, so no other same-arity key falls in that range. Everything else
// scatters to every shard and merges the per-shard cursors.
func (s *store) OpenScan(tx *txn.Txn, opts core.ScanOptions) (core.Scan, error) {
	var tables []smutil.ForeignTable
	if len(opts.Start) > 0 && len(opts.End) > 0 &&
		bytes.Equal(opts.End, smutil.PrefixSuccessor(opts.Start)) &&
		fullKeyLen(opts.Start) == len(s.keyFields) {
		s.env.Obs.Part.RoutedScans.Add(1)
		tables = []smutil.ForeignTable{s.shards[s.shardOf(opts.Start)].ForeignTable}
	} else {
		s.env.Obs.Part.ScatterScans.Add(1)
		for i := range s.shards {
			tables = append(tables, s.shards[i].ForeignTable)
		}
	}
	return smutil.NewForeignScan(s.env.Eval, txnID(tx), s.batch, opts, tables), nil
}

// EstimateCost implements core.StorageInstance: a whole-key point access
// is one round trip to one shard; anything else pays a fan-out of at
// least one round trip per shard, plus a batch round trip per batch of
// qualifying records.
func (s *store) EstimateCost(req core.CostRequest) core.CostEstimate {
	n := float64(s.RecordCount())
	fan := float64(len(s.shards))
	start, end, handled, point, depth := smutil.KeyRange(s.keyFields, req.Conjuncts)
	est := core.CostEstimate{Usable: true, Start: start, End: end, Handled: handled,
		Ordered: smutil.OrderSatisfiedBy(s.keyFields, req.OrderBy)}
	switch {
	case point:
		est.IO = 4 // one round trip, one shard
		est.CPU = 1
		est.Selectivity = 1 / maxf(n, 1)
	case depth > 0:
		frac := smutil.HandledSelectivity(req, handled)
		est.IO = (n*frac/float64(s.batch) + fan) * 4
		est.CPU = n * frac
		est.Selectivity = frac * smutil.ResidualSelectivity(req, handled)
	default:
		est.IO = (n/float64(s.batch) + fan) * 4
		est.CPU = n
		est.Selectivity = smutil.RequestSelectivity(req)
	}
	return est
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// PartitionBounds implements core.RangePartitioner for parallel scans:
// split points sampled from the first batch of keys on every shard.
func (s *store) PartitionBounds(n int) []types.Key {
	if n <= 1 {
		return nil
	}
	var keys []string
	for i := range s.shards {
		entries, err := s.shards[i].Client.ScanBatch(s.shards[i].Table, nil, s.batch)
		if err != nil {
			return nil
		}
		for _, e := range entries {
			keys = append(keys, string(e.Key))
		}
	}
	sort.Strings(keys)
	if len(keys) < n {
		return nil
	}
	var bounds []types.Key
	for i := 1; i < n; i++ {
		k := keys[i*len(keys)/n]
		bounds = append(bounds, types.Key(k))
	}
	return bounds
}

// RecordCount implements core.StorageInstance: one round trip per shard.
func (s *store) RecordCount() int {
	total := 0
	for i := range s.shards {
		n, err := s.shards[i].Client.Count(s.shards[i].Table)
		if err != nil {
			return total
		}
		total += n
	}
	return total
}

// ApplyLogged implements core.StorageInstance (restart recovery with no
// live transaction context).
func (s *store) ApplyLogged(payload []byte, undo bool) error {
	return s.ApplyLoggedTxn(0, payload, undo)
}

// ApplyLoggedTxn implements core.TxnLoggedApplier. A live transaction's
// rollback stages compensating writes under its own id, so the shard's
// committed state never sees the retracted effects at all. With no live
// session (restart recovery), the modification is applied directly to the
// committed shard state: redo rebuilds fresh shards from the log, undo
// retracts loser transactions — both idempotent, because 2PC resolution
// may already have committed or discarded the same effects shard-side
// (deletes tolerate absent keys, puts overwrite).
func (s *store) ApplyLoggedTxn(id wal.TxnID, payload []byte, undo bool) error {
	p, err := core.DecodeMod(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if id != 0 && sess != nil {
		return s.applyStaged(uint64(id), sess, p, undo)
	}
	return s.applyDirect(p, undo)
}

// applyStaged routes a live rollback's compensation through the
// transaction's staged shard writes (last-op-wins staging makes the
// compensation net out the original).
func (s *store) applyStaged(id uint64, sess *session, p core.ModPayload, undo bool) error {
	if !undo {
		return fmt.Errorf("partsm: unexpected redo for live transaction %d", id)
	}
	put := func(key types.Key, rec types.Record) error {
		sh := s.shardOf(key)
		sess.touched[sh] = true
		return s.shards[sh].Client.StagePut(id, s.shards[sh].Table, key, rec)
	}
	del := func(key types.Key) error {
		sh := s.shardOf(key)
		sess.touched[sh] = true
		return s.shards[sh].Client.StageDelete(id, s.shards[sh].Table, key)
	}
	switch p.Op {
	case core.ModInsert:
		return del(p.Key)
	case core.ModDelete:
		return put(p.Key, p.Old)
	case core.ModUpdate:
		if !p.NewKey.Equal(p.Key) {
			if err := del(p.NewKey); err != nil {
				return err
			}
		}
		return put(p.Key, p.Old)
	default:
		return fmt.Errorf("partsm: bad logged op %v", p.Op)
	}
}

// applyDirect applies a logged modification to committed shard state
// during restart recovery, creating shard tables idempotently (replay may
// target fresh servers whose create round trips never re-ran).
func (s *store) applyDirect(p core.ModPayload, undo bool) error {
	put := func(key types.Key, rec types.Record) error {
		sh := s.shardOf(key)
		if err := s.shards[sh].Client.CreateTable(s.shards[sh].Table); err != nil {
			return err
		}
		_, err := s.shards[sh].Client.Put(s.shards[sh].Table, key, rec)
		return err
	}
	del := func(key types.Key) error {
		sh := s.shardOf(key)
		if err := s.shards[sh].Client.CreateTable(s.shards[sh].Table); err != nil {
			return err
		}
		// A missing key is fine in both directions: the shard may already
		// reflect the retraction (the decision arrived before the crash)
		// or never received the staged write at all.
		s.shards[sh].Client.Delete(s.shards[sh].Table, key)
		return nil
	}
	op, key, rec := p.Op, p.Key, p.New
	if undo {
		switch p.Op {
		case core.ModInsert:
			return del(p.Key)
		case core.ModDelete:
			op, rec = core.ModInsert, p.Old
		case core.ModUpdate:
			if !p.NewKey.Equal(p.Key) {
				if err := del(p.NewKey); err != nil {
					return err
				}
			}
			op, rec = core.ModInsert, p.Old
		}
	} else if p.Op == core.ModUpdate {
		if !p.NewKey.Equal(p.Key) {
			if err := del(p.Key); err != nil {
				return err
			}
		}
		key = p.NewKey
	}
	switch op {
	case core.ModInsert, core.ModUpdate:
		return put(key, rec)
	case core.ModDelete:
		return del(key)
	default:
		return fmt.Errorf("partsm: bad logged op %v", p.Op)
	}
}

// ShardInfos implements core.ShardIntrospector for sys.stat_shards.
// InDoubt and Messages are per-server figures (a server may host several
// shards or relations).
func (s *store) ShardInfos() []core.ShardInfo {
	out := make([]core.ShardInfo, 0, len(s.shards))
	for i := range s.shards {
		info := core.ShardInfo{
			Shard:    i,
			Server:   s.shards[i].server,
			Table:    s.shards[i].Table,
			Messages: s.shards[i].srv.Messages.Load(),
		}
		if n, err := s.shards[i].Client.Count(s.shards[i].Table); err == nil {
			info.Records = n
		}
		if ids, err := s.shards[i].Client.InDoubt(); err == nil {
			info.InDoubt = len(ids)
		}
		out = append(out, info)
	}
	return out
}

var (
	_ core.StorageInstance   = (*store)(nil)
	_ core.TxnLoggedApplier  = (*store)(nil)
	_ core.RangePartitioner  = (*store)(nil)
	_ core.ShardIntrospector = (*store)(nil)
)

// Resolve drives every in-doubt shard transaction of every partitioned
// relation to the coordinator's outcome: a commit record surviving in the
// local log (or an in-process decision whose delivery failed) means
// commit; no decision means abort — presumed abort, the coordinator never
// logged one. Registered as the storage method's AfterRecovery hook and
// callable directly to redeliver lost decisions without a restart.
func Resolve(env *core.Env) error {
	var committed map[wal.TxnID]bool
	for _, name := range env.Cat.List() {
		rd, ok := env.Cat.ByName(name)
		if !ok || core.IsSystemRelID(rd.RelID) || rd.SM != core.SMPart {
			continue
		}
		inst, err := env.StorageInstance(rd)
		if err != nil {
			return err
		}
		s, ok := inst.(*store)
		if !ok {
			continue
		}
		if committed == nil {
			committed = make(map[wal.TxnID]bool)
			for _, rec := range env.Log.Records() {
				if rec.Kind == wal.RecCommit {
					committed[rec.Txn] = true
				}
			}
		}
		if err := s.resolve(committed); err != nil {
			return err
		}
	}
	return nil
}

// resolve decides every prepared transaction on every distinct server
// behind this relation. Decisions are per transaction, not per relation:
// a server transaction's staged writes may span several partitioned
// relations sharing the server, and the first resolver settles them all.
func (s *store) resolve(committed map[wal.TxnID]bool) error {
	s.mu.Lock()
	pending := make(map[uint64]bool, len(s.pending))
	for id, c := range s.pending {
		pending[id] = c
	}
	s.pending = make(map[uint64]bool)
	s.mu.Unlock()
	seen := make(map[*remote.Server]bool)
	for i := range s.shards {
		if seen[s.shards[i].srv] {
			continue
		}
		seen[s.shards[i].srv] = true
		ids, err := s.shards[i].Client.InDoubt()
		if err != nil {
			return fmt.Errorf("partsm: shard %d in-doubt query: %w", i, err)
		}
		for _, id := range ids {
			commit := committed[wal.TxnID(id)] || pending[id]
			var derr error
			if commit {
				derr = s.shards[i].Client.CommitTxn(id)
			} else {
				derr = s.shards[i].Client.AbortTxn(id)
			}
			if derr != nil {
				return fmt.Errorf("partsm: resolve txn %d on shard %d: %w", id, i, derr)
			}
			s.env.Obs.Part.Resolved.Add(1)
		}
	}
	return nil
}
