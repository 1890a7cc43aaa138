package smutil

import (
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/types"
)

// FilterProject applies a pushed-down filter and field selection to one
// decoded record: it returns the record to hand back (projected to fields
// when fields is non-nil) and ok=false when the filter rejects it.
func FilterProject(ev *expr.Evaluator, rec types.Record, filter *expr.Expr, params []types.Value, fields []int) (types.Record, bool, error) {
	if filter != nil {
		match, err := ev.EvalBool(filter, rec, params)
		if err != nil || !match {
			return nil, false, err
		}
	}
	if fields != nil {
		rec = rec.Project(fields)
	}
	return rec, true, nil
}

// FetchFiltered is FilterProject for a direct-by-key fetch, where a
// rejected record is reported as core.ErrFiltered.
func FetchFiltered(ev *expr.Evaluator, rec types.Record, fields []int, filter *expr.Expr) (types.Record, error) {
	rec, ok, err := FilterProject(ev, rec, filter, nil, fields)
	if err == nil && !ok {
		err = core.ErrFiltered
	}
	return rec, err
}
