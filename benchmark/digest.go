package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"

	"consim"
)

// stats_digest is a string, not a metric: FNV-1a over the simulated
// statistics of a run. A speed-only change must leave it identical
// between parent and change; a model change states that it moves.

// resultDigest hashes a run's measurement-window length, every field of
// every VM's vm.Stats and the snapshot's resident and replicated line
// counts.
func resultDigest(res consim.Result) string {
	h := fnv.New64a()
	putUint(h, uint64(res.Cycles))
	for i := range res.VMs {
		hashValue(h, reflect.ValueOf(res.VMs[i].Stats))
	}
	putUint(h, uint64(res.Snapshot.ResidentLines))
	putUint(h, uint64(res.Snapshot.ReplicatedLines))
	return fmt.Sprintf("%016x", h.Sum64())
}

// tablesDigest hashes a figure sweep's output: every table's ID, row
// labels and cell values.
func tablesDigest(tables []*consim.FigureTable) string {
	h := fnv.New64a()
	for _, t := range tables {
		if t == nil {
			continue
		}
		h.Write([]byte(t.ID))
		for _, row := range t.Rows {
			h.Write([]byte(row.Label))
			for _, v := range row.Values {
				putUint(h, math.Float64bits(v))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashValue folds v into h field by field. It walks structs and arrays
// by reflection so a counter added to vm.Stats is covered without an
// edit here, and panics on a kind it cannot hash rather than skip it.
func hashValue(h hash.Hash64, v reflect.Value) {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		putUint(h, v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putUint(h, uint64(v.Int()))
	case reflect.Float32, reflect.Float64:
		putUint(h, math.Float64bits(v.Float()))
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("benchmark: stats_digest cannot hash a %s", v.Kind()))
	}
}

func putUint(h hash.Hash64, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}
