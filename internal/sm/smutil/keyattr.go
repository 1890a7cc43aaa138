package smutil

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"dmx/internal/core"
	"dmx/internal/types"
)

// ErrDuplicateKey is returned when inserting or updating a record whose key
// fields collide with a stored record, in every storage method whose key
// fields are the relation's primary key.
var ErrDuplicateKey = errors.New("smutil: duplicate key")

// ParseKeyAttr reads the key=col,... attribute a key-organised storage
// method requires and returns the key field indexes. Errors name the
// method and its package (<method>sm).
func ParseKeyAttr(method string, schema *types.Schema, attrs core.AttrList) ([]int, error) {
	spec, ok := attrs.Get("key")
	if !ok || spec == "" {
		return nil, fmt.Errorf("%ssm: the %s storage method requires a key=col,... attribute", method, method)
	}
	var fields []int
	for _, name := range strings.Split(spec, ",") {
		i := schema.ColIndex(strings.TrimSpace(name))
		if i < 0 {
			return nil, fmt.Errorf("%ssm: key column %q not in schema", method, strings.TrimSpace(name))
		}
		fields = append(fields, i)
	}
	return fields, nil
}

// AppendKeyFields appends the storage-descriptor encoding of a key-field
// list to out: a count byte, then each field index as a big-endian uint16.
func AppendKeyFields(out []byte, fields []int) []byte {
	out = append(out, byte(len(fields)))
	for _, f := range fields {
		out = binary.BigEndian.AppendUint16(out, uint16(f))
	}
	return out
}

// DecodeKeyFields reverses AppendKeyFields at the head of b, returning the
// field list and the rest of b; ok is false when b is truncated.
func DecodeKeyFields(b []byte) (fields []int, rest []byte, ok bool) {
	if len(b) < 1 || len(b) < 1+2*int(b[0]) {
		return nil, nil, false
	}
	n := int(b[0])
	fields = make([]int, n)
	for i := range fields {
		fields[i] = int(binary.BigEndian.Uint16(b[1+2*i:]))
	}
	return fields, b[1+2*n:], true
}
