// Package remotesm implements the foreign-database relation storage
// method: relation accesses are simulated via remote accesses to a
// relation in a foreign database, as the paper sketches.
//
// Each operation becomes one or more round trips to a remote.Server
// (scans batch records to amortise them). Undo issues compensating remote
// operations, so a vetoed or aborted local transaction retracts its
// effects from the foreign database — the foreign side sees the local
// transaction's net effect only.
package remotesm

import (
	"encoding/binary"
	"fmt"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/remote"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the storage method.
const Name = "remote"

func init() {
	core.RegisterStorageMethod(&core.StorageOps{
		ID:   core.SMRemote,
		Name: Name,
		// Remote relation contents live on the foreign server and cannot be
		// rescanned at restart (servers are attached after open), so restart
		// recovery replays the attachment-owned log records instead.
		ReplayAttachments: true,
		ValidateAttrs: func(schema *types.Schema, attrs core.AttrList) error {
			if err := attrs.CheckAllowed(Name, "server", "table", "batch"); err != nil {
				return err
			}
			if _, ok := attrs.Get("server"); !ok {
				return fmt.Errorf("remotesm: the remote storage method requires a server=<name> attribute")
			}
			if _, err := smutil.ParseBatch(Name, attrs); err != nil {
				return err
			}
			return nil
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, attrs core.AttrList) ([]byte, error) {
			server, _ := attrs.Get("server")
			tableName, ok := attrs.Get("table")
			if !ok {
				tableName = rd.Name
			}
			batch, err := smutil.ParseBatch(Name, attrs)
			if err != nil {
				return nil, err
			}
			srv, err := smutil.LookupServer(env, server)
			if err != nil {
				return nil, err
			}
			client := remote.Dial(srv)
			defer client.Close()
			if err := client.CreateTable(tableName); err != nil {
				return nil, err
			}
			return encodeDesc(server, tableName, batch), nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.StorageInstance, error) {
			server, tableName, batch, err := decodeDesc(rd.SMDesc)
			if err != nil {
				return nil, err
			}
			srv, err := smutil.LookupServer(env, server)
			if err != nil {
				return nil, err
			}
			return &store{env: env, rd: rd, table: tableName, batch: batch, client: remote.Dial(srv)}, nil
		},
	})
}

func encodeDesc(server, tableName string, batch int) []byte {
	out := []byte{byte(len(server))}
	out = append(out, server...)
	out = append(out, byte(len(tableName)))
	out = append(out, tableName...)
	return binary.BigEndian.AppendUint16(out, uint16(batch))
}

func decodeDesc(b []byte) (server, tableName string, batch int, err error) {
	if len(b) < 1 {
		return "", "", 0, fmt.Errorf("remotesm: empty storage descriptor")
	}
	n := int(b[0])
	if len(b) < 1+n+1 {
		return "", "", 0, fmt.Errorf("remotesm: truncated storage descriptor")
	}
	server = string(b[1 : 1+n])
	m := int(b[1+n])
	if len(b) < 2+n+m+2 {
		return "", "", 0, fmt.Errorf("remotesm: truncated table name")
	}
	tableName = string(b[2+n : 2+n+m])
	batch = int(binary.BigEndian.Uint16(b[2+n+m:]))
	if batch < 1 {
		batch = smutil.DefaultScanBatchSize
	}
	return server, tableName, batch, nil
}

// store is the foreign-relation storage instance.
type store struct {
	env    *core.Env
	rd     *core.RelDesc
	table  string
	batch  int
	client *remote.Client
}

// Insert implements core.StorageInstance: one round trip; the foreign
// database assigns the record key.
func (s *store) Insert(tx *txn.Txn, rec types.Record) (types.Key, error) {
	key, err := s.client.Put(s.table, nil, rec)
	if err != nil {
		return nil, err
	}
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModInsert, Key: key, New: rec}); err != nil {
		return nil, err
	}
	return key, nil
}

// Update implements core.StorageInstance: one round trip, key stable.
func (s *store) Update(tx *txn.Txn, key types.Key, oldRec, newRec types.Record) (types.Key, error) {
	if _, err := s.client.Put(s.table, key, newRec); err != nil {
		return nil, err
	}
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModUpdate, Key: key, NewKey: key, Old: oldRec, New: newRec}); err != nil {
		return nil, err
	}
	return key, nil
}

// Delete implements core.StorageInstance: one round trip.
func (s *store) Delete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	if err := s.client.Delete(s.table, key); err != nil {
		return err
	}
	return core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModDelete, Key: key, Old: oldRec})
}

// FetchByKey implements core.StorageInstance: one round trip; the filter
// runs locally on the fetched record.
func (s *store) FetchByKey(tx *txn.Txn, key types.Key, fields []int, filter *expr.Expr) (types.Record, error) {
	rec, err := s.client.Get(s.table, key)
	if err != nil {
		return nil, smutil.ForeignFetchErr(key, err)
	}
	return smutil.FetchFiltered(s.env.Eval, rec, fields, filter)
}

// OpenScan implements core.StorageInstance: batched remote key order, the
// shared foreign scan over this one table outside any server transaction.
func (s *store) OpenScan(tx *txn.Txn, opts core.ScanOptions) (core.Scan, error) {
	return smutil.NewForeignScan(s.env.Eval, 0, s.batch, opts,
		[]smutil.ForeignTable{{Client: s.client, Table: s.table}}), nil
}

// EstimateCost implements core.StorageInstance: every batch of records is
// a network round trip, which dominates like page I/O does locally.
func (s *store) EstimateCost(req core.CostRequest) core.CostEstimate {
	n := s.RecordCount()
	rounds := float64(n)/float64(s.batch) + 1
	return core.CostEstimate{
		Usable:      true,
		IO:          rounds * 4, // a round trip costs ~several page reads
		CPU:         float64(n),
		Selectivity: smutil.RequestSelectivity(req),
	}
}

// RecordCount implements core.StorageInstance (one round trip).
func (s *store) RecordCount() int {
	n, err := s.client.Count(s.table)
	if err != nil {
		return 0
	}
	return n
}

// ApplyLogged implements core.StorageInstance: compensating remote calls.
func (s *store) ApplyLogged(payload []byte, undo bool) error {
	p, err := core.DecodeMod(payload)
	if err != nil {
		return err
	}
	// The create round trip may not have re-run yet during replay onto a
	// fresh foreign database; CreateTable is idempotent.
	if err := s.client.CreateTable(s.table); err != nil {
		return err
	}
	op := p.Op
	rec := p.New
	if undo {
		switch p.Op {
		case core.ModInsert:
			op = core.ModDelete
		case core.ModDelete:
			op, rec = core.ModInsert, p.Old
		case core.ModUpdate:
			rec = p.Old
		}
	}
	switch op {
	case core.ModInsert, core.ModUpdate:
		_, err := s.client.Put(s.table, p.Key, rec)
		return err
	case core.ModDelete:
		err := s.client.Delete(s.table, p.Key)
		if err != nil && !undo {
			return nil // replaying a delete of an already-absent record
		}
		return err
	default:
		return fmt.Errorf("remotesm: bad logged op %v", p.Op)
	}
}

var _ core.StorageInstance = (*store)(nil)
