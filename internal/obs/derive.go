package obs

import "reflect"

// Snapshot and Sub of every stats type are derived from the struct
// declarations (DESIGN.md §10): a live Counter, Gauge or Histogram loads
// into the snapshot field of the same name, and a snapshot field
// subtracts as a counter unless its `obs` tag says gauge or derived
// (filled fields subtract like counters).
// This runs at phase boundaries and Stats requests, never per operation,
// so the types are walked afresh on every call.

// load fills a snapshot from a live struct, flattening nested live
// structs. A Histogram with no same-named field is left to the caller
// (GridStats builds its PerOp map).
func load[S any](live any) (snap S) {
	loadInto(reflect.ValueOf(live).Elem(), reflect.ValueOf(&snap).Elem())
	return snap
}

func loadInto(live, snap reflect.Value) {
	for i := 0; i < live.NumField(); i++ {
		dst := snap.FieldByName(live.Type().Field(i).Name)
		switch m := live.Field(i).Addr().Interface().(type) {
		case interface{ Load() uint64 }: // Counter, Gauge
			dst.SetUint(m.Load())
		case *Histogram:
			if dst.IsValid() {
				dst.Set(reflect.ValueOf(m.Snapshot()))
			}
		default:
			loadInto(live.Field(i), snap)
		}
	}
}

func sub[S any](s, prev S) S {
	combine(reflect.ValueOf(&s).Elem(), reflect.ValueOf(prev))
	return s
}

var (
	histogramType = reflect.TypeOf(HistogramSnapshot{})
	perOpType     = reflect.TypeOf(map[string]HistogramSnapshot(nil))
)

// combine turns a into a-b. a starts as a copy of the receiver, so what
// it shares with the receiver — a pointer or map — is replaced, never
// written through.
func combine(a, b reflect.Value) {
	switch {
	case a.Kind() == reflect.Uint64:
		a.SetUint(a.Uint() - b.Uint())
	case a.Type() == histogramType:
		a.Set(reflect.ValueOf(a.Interface().(HistogramSnapshot).Sub(b.Interface().(HistogramSnapshot))))
	case a.Type() == perOpType:
		// Min and max are not interval-subtractable, so an operation with
		// no samples in the interval is dropped rather than left to leak
		// its cumulative extremes.
		prev := b.Interface().(map[string]HistogramSnapshot)
		d := map[string]HistogramSnapshot{}
		for op, h := range a.Interface().(map[string]HistogramSnapshot) {
			if h = h.Sub(prev[op]); h.Count > 0 {
				d[op] = h
			}
		}
		a.Set(reflect.ValueOf(d))
	case a.Kind() == reflect.Ptr && !a.IsNil():
		// An absent layer stays absent; one absent from b counts as zero.
		d := reflect.New(a.Type().Elem())
		d.Elem().Set(a.Elem())
		if b.IsNil() {
			b = reflect.New(a.Type().Elem())
		}
		combine(d.Elem(), b.Elem())
		a.Set(d)
	case a.Kind() == reflect.Ptr: // nil: a stays
	case a.Kind() == reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if tag := a.Type().Field(i).Tag.Get("obs"); tag != "derived" && tag != "gauge" {
				combine(a.Field(i), b.Field(i))
			}
		}
		if f, ok := a.Addr().Interface().(interface{ Finalize() }); ok {
			f.Finalize() // recompute the derived fields
		}
	default:
		panic("obs: cannot subtract a " + a.Type().String())
	}
}
