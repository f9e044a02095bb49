package obs

import (
	"reflect"
	"strings"
	"testing"
)

var (
	counterType   = reflect.TypeOf(Counter{})
	gaugeType     = reflect.TypeOf(Gauge{})
	liveHistType  = reflect.TypeOf(Histogram{})
	uint64Type    = reflect.TypeOf(uint64(0))
	knownObsTags  = map[string]bool{"gauge": true, "max": true, "filled": true, "derived": true}
	gaugeLikeTags = map[string]bool{"gauge": true, "max": true}
)

// liveMetrics lists the metric fields of a live struct by name, nested
// structs flattened the way load flattens them.
func liveMetrics(live reflect.Type, out map[string]reflect.Type) {
	for i := 0; i < live.NumField(); i++ {
		switch f := live.Field(i); f.Type {
		case counterType, gaugeType, liveHistType:
			out[f.Name] = f.Type
		default:
			liveMetrics(f.Type, out)
		}
	}
}

// bumpAll gives every metric of a live struct a distinct value (a sample
// count for a histogram) and returns them by field name.
func bumpAll(live reflect.Value, want map[string]uint64) map[string]uint64 {
	for i := 0; i < live.NumField(); i++ {
		n := uint64(len(want) + 1)
		switch m := live.Field(i).Addr().Interface().(type) {
		case *Counter:
			m.Add(n)
		case *Gauge:
			m.Store(n)
		case *Histogram:
			for j := uint64(0); j < n; j++ {
				m.ObserveNs(j)
			}
		default:
			bumpAll(live.Field(i), want)
			continue
		}
		want[live.Type().Field(i).Name] = n
	}
	return want
}

// declProblems checks one live/snapshot pair (live may be nil for a
// snapshot assembled from other snapshots) against the rule derive.go
// relies on: the two declarations are the whole definition of a metric.
func declProblems(live, snap reflect.Type) []string {
	var problems []string
	bad := func(msg, field string) {
		problems = append(problems, snap.Name()+"."+field+": "+msg)
	}
	metrics := map[string]reflect.Type{}
	if live != nil {
		liveMetrics(live, metrics)
	}
	keyed := false // the snapshot keeps histograms in a per-op map
	for i := 0; i < snap.NumField(); i++ {
		keyed = keyed || snap.Field(i).Type == perOpType
	}
	for name, typ := range metrics {
		f, ok := snap.FieldByName(name)
		tag := f.Tag.Get("obs")
		switch {
		case !ok && typ == liveHistType && keyed:
			// Kept under its operation name in the per-op map instead.
		case !ok:
			bad("live metric has no snapshot field", name)
		case typ == counterType && (f.Type != uint64Type || tag != ""):
			bad("twin of a Counter must be an untagged uint64", name)
		case typ == gaugeType && (f.Type != uint64Type || !gaugeLikeTags[tag]):
			bad("twin of a Gauge must be a uint64 tagged gauge or max", name)
		case typ == liveHistType && f.Type != histogramType:
			bad("twin of a Histogram must be a HistogramSnapshot", name)
		}
	}
	for i := 0; i < snap.NumField(); i++ {
		f := snap.Field(i)
		tag := f.Tag.Get("obs")
		if f.Tag.Get("json") == "" {
			bad("no JSON key", f.Name)
		}
		if tag != "" && !knownObsTags[tag] {
			bad("unknown obs tag "+tag, f.Name)
		}
		switch f.Type.Kind() {
		case reflect.Uint64, reflect.Int, reflect.Float64, reflect.Bool:
			if _, twin := metrics[f.Name]; !twin && tag == "" {
				bad("neither the twin of a live metric nor tagged gauge, max, filled or derived", f.Name)
			}
		}
	}
	return problems
}

// TestDeclarationsAreTheContract walks every live/snapshot pair: a metric
// is a field on the live struct plus a same-named field with a JSON key on
// the snapshot, and every snapshot number that is not such a twin carries
// a tag. Nothing else needs writing for Snapshot, Sub and Add to cover it.
func TestDeclarationsAreTheContract(t *testing.T) {
	pairs := []struct{ live, snap any }{
		{&NVMStats{}, NVMSnapshot{}},
		{&HeapStats{}, HeapSnapshot{}},
		{&FAStats{}, FASnapshot{}},
		{&ShardStats{}, ShardSnapshot{}},
		{&GridStats{}, GridSnapshot{}},
		{&RecoveryStats{}, RecoverySnapshot{}},
		{&ServerStats{}, ServerSnapshot{}},
		{nil, PoolSnapshot{}},
		{nil, StackSnapshot{}},
	}
	for _, p := range pairs {
		snap := reflect.New(reflect.TypeOf(p.snap)).Elem()
		if p.live == nil {
			for _, msg := range declProblems(nil, snap.Type()) {
				t.Error(msg)
			}
			continue
		}
		live := reflect.ValueOf(p.live).Elem()
		problems := declProblems(live.Type(), snap.Type())
		for _, msg := range problems {
			t.Error(msg)
		}
		if len(problems) > 0 {
			continue
		}
		// And load honours it: give every live metric its own value and
		// look for it under the same name.
		want := bumpAll(live, map[string]uint64{})
		loadInto(live, snap)
		for name, n := range want {
			switch f := snap.FieldByName(name); {
			case !f.IsValid(): // a keyed histogram
			case f.Type() == histogramType:
				if got := f.Interface().(HistogramSnapshot).Count; got != n {
					t.Errorf("%s.%s loaded %d samples, want %d", snap.Type().Name(), name, got, n)
				}
			case f.Uint() != n:
				t.Errorf("%s.%s loaded %d, want %d", snap.Type().Name(), name, f.Uint(), n)
			}
		}
	}

	// The grid's histograms are the one keyed case: each must be the one
	// Op returns for its lower-cased name, and GridOps must list them all.
	var g GridStats
	hists := 0
	gv := reflect.ValueOf(&g).Elem()
	for i := 0; i < gv.NumField(); i++ {
		if gv.Type().Field(i).Type != liveHistType {
			continue
		}
		hists++
		name := strings.ToLower(gv.Type().Field(i).Name)
		if g.Op(name) != gv.Field(i).Addr().Interface().(*Histogram) {
			t.Errorf("GridStats.Op(%q) is not the %s histogram", name, gv.Type().Field(i).Name)
		}
	}
	if hists != len(GridOps) {
		t.Errorf("GridStats has %d histograms, GridOps lists %d", hists, len(GridOps))
	}
}

// TestAddingACounterIsTwoDeclarations shows the rule on a scratch pair:
// with both halves declared the checker is silent and the derived
// Snapshot/Sub/Add cover the new counter; with either half missing it
// names the field.
func TestAddingACounterIsTwoDeclarations(t *testing.T) {
	type live struct {
		Old, New Counter
		Depth    Gauge
	}
	type snap struct {
		Old   uint64 `json:"old"`
		New   uint64 `json:"new"`
		Depth uint64 `json:"depth" obs:"gauge"`
	}
	if p := declProblems(reflect.TypeOf(live{}), reflect.TypeOf(snap{})); len(p) != 0 {
		t.Fatalf("complete pair reported %v", p)
	}
	var l live
	l.New.Add(5)
	l.Depth.Store(7)
	before := load[snap](&l)
	l.New.Add(3)
	l.Depth.Store(9)
	after := load[snap](&l)
	if d := sub(after, before); d != (snap{New: 3, Depth: 9}) {
		t.Fatalf("sub = %+v", d)
	}
	if s := add(after, before); s != (snap{New: 13, Depth: 16}) {
		t.Fatalf("add = %+v", s)
	}

	type snapWithoutNew struct {
		Old   uint64 `json:"old"`
		Depth uint64 `json:"depth" obs:"gauge"`
	}
	if p := declProblems(reflect.TypeOf(live{}), reflect.TypeOf(snapWithoutNew{})); len(p) != 1 || !strings.Contains(p[0], "New: live metric has no snapshot field") {
		t.Fatalf("missing snapshot half reported %v", p)
	}
	type liveWithoutNew struct {
		Old   Counter
		Depth Gauge
	}
	if p := declProblems(reflect.TypeOf(liveWithoutNew{}), reflect.TypeOf(snap{})); len(p) != 1 || !strings.Contains(p[0], "New: neither the twin") {
		t.Fatalf("missing live half reported %v", p)
	}
	type snapUntaggedGauge struct {
		Old   uint64 `json:"old"`
		New   uint64 `json:"new"`
		Depth uint64 `json:"depth"`
	}
	if p := declProblems(reflect.TypeOf(live{}), reflect.TypeOf(snapUntaggedGauge{})); len(p) != 1 || !strings.Contains(p[0], "Depth: twin of a Gauge") {
		t.Fatalf("untagged gauge reported %v", p)
	}
}
