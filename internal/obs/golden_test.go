package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// filler assigns every leaf of a snapshot a distinct fixed value, so a
// marshalled snapshot shows every key and a Sub result shows which rule
// each field followed (the n-th leaf gets n squared, so no two deltas
// coincide). A filler with a larger base and more samples dominates
// a smaller one field by field, which keeps deltas positive.
type filler struct {
	n       uint64
	samples int
}

func histogramOf(samples int) HistogramSnapshot {
	var h Histogram
	for i := 0; i < samples; i++ {
		h.ObserveNs(uint64(100 * (i + 1)))
	}
	return h.Snapshot()
}

func (f *filler) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(f.n * f.n)
	case reflect.Int:
		v.SetInt(int64(f.n * f.n))
	case reflect.Float64:
		v.SetFloat(float64(f.n*f.n) / 4)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		f.fill(v.Index(0))
		f.fill(v.Index(1))
	case reflect.Map:
		// read grows over the interval, insert does not (its delta must
		// drop out).
		m := map[string]HistogramSnapshot{"read": histogramOf(f.samples), "insert": histogramOf(4)}
		v.Set(reflect.ValueOf(m))
	case reflect.Struct:
		if v.Type() == histogramType {
			v.Set(reflect.ValueOf(histogramOf(f.samples)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	default:
		panic("unfillable " + v.Type().String())
	}
}

func filled[S any](base uint64, samples int) S {
	var s S
	(&filler{n: base, samples: samples}).fill(reflect.ValueOf(&s).Elem())
	return s
}

// goldenLines renders snapshot types, and their Sub, on fixed inputs.
// The committed testdata/snapshots.golden was produced at the parent
// commit of the derive.go refactor, from the hand-written method bodies;
// lines and keys have only been deleted from it since, with the methods
// and fields they rendered, except for the fa.sub line, into which
// word_entries was inserted. Leaves are filled by position, so deleting a
// key renumbers the values of the keys after it on its line. The grid is
// filled on its own from the bases it had inside a StackSnapshot when the
// file was written, so a metric added to an earlier layer does not
// renumber its line; its bases moved up by two when the two record-cache
// keys that led the line were deleted, so the keys after them kept their
// values.
func goldenLines(t *testing.T) []string {
	gridSmall, gridBig := filled[GridSnapshot](44, 4), filled[GridSnapshot](1044, 9)
	recSmall, recBig := filled[RecoverySnapshot](0, 0), filled[RecoverySnapshot](1000, 0)
	srvSmall, srvBig := filled[ServerSnapshot](0, 4), filled[ServerSnapshot](1000, 9)
	faSmall, faBig := filled[FASnapshot](0, 0), filled[FASnapshot](1000, 0)

	var lines []string
	emit := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, name+"\t"+string(b))
	}
	emit("grid.sub", gridBig.Sub(gridSmall))
	emit("recovery", recBig)
	emit("recovery.sub", recBig.Sub(recSmall))
	emit("server", srvBig)
	emit("server.sub", srvBig.Sub(srvSmall))
	emit("fa.sub", faBig.Sub(faSmall))
	return lines
}

// TestSnapshotsMatchParent is the golden comparison: same JSON keys in the
// same order, and the same Sub results (gauges, derived columns, dropped
// zero-count ops) as the hand-written bodies produced.
func TestSnapshotsMatchParent(t *testing.T) {
	want, err := os.ReadFile("testdata/snapshots.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	got := goldenLines(t)
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i, got[i], wantLines[i])
		}
	}
}

// TestStackSubIsPerLayer: a stack delta is each layer's own delta, gauges
// kept and derived columns recomputed over the interval; a layer absent
// from the previous snapshot deltas against zero, and one absent from the
// receiver stays absent.
func TestStackSubIsPerLayer(t *testing.T) {
	small, big := filled[StackSnapshot](0, 4), filled[StackSnapshot](1000, 9)
	d := big.Sub(small)
	if *d.NVM != big.NVM.Sub(*small.NVM) || *d.Heap != big.Heap.Sub(*small.Heap) ||
		*d.FA != big.FA.Sub(*small.FA) || *d.Recovery != big.Recovery.Sub(*small.Recovery) ||
		!reflect.DeepEqual(*d.Grid, big.Grid.Sub(*small.Grid)) {
		t.Fatalf("stack delta is not the per-layer deltas: %+v", d)
	}
	if d.Heap.ObjAllocs != big.Heap.ObjAllocs-small.Heap.ObjAllocs || d.Heap.Bump != big.Heap.Bump ||
		d.FA.WatermarkLag != big.FA.WatermarkLag {
		t.Fatalf("counters must subtract and gauges stay: %+v %+v", *d.Heap, *d.FA)
	}
	if d.Ops != d.Grid.Ops() || d.PWBPerOp != float64(d.NVM.PWBs)/float64(d.Ops) {
		t.Fatalf("derived columns not recomputed: ops %d, pwb/op %v", d.Ops, d.PWBPerOp)
	}

	partial := filled[StackSnapshot](0, 4)
	partial.NVM, partial.Grid = nil, nil
	if d := big.Sub(partial); *d.NVM != *big.NVM || !reflect.DeepEqual(*d.Grid, big.Grid.Sub(GridSnapshot{})) {
		t.Fatalf("layers absent from prev must delta against zero: %+v %+v", *d.NVM, *d.Grid)
	}
	sparse := filled[StackSnapshot](1000, 9)
	sparse.Heap, sparse.Recovery = nil, nil
	if d := sparse.Sub(small); d.Heap != nil || d.Recovery != nil || d.NVM == nil {
		t.Fatalf("layers absent from the receiver must stay absent: %+v", d)
	}
}

// TestSubAddLeaveInputsAlone: results share no map or pointer with their
// inputs in a way that lets subtracting write through.
func TestSubAddLeaveInputsAlone(t *testing.T) {
	small, big := filled[StackSnapshot](0, 4), filled[StackSnapshot](1000, 9)
	before := fmt.Sprintf("%+v %+v %+v", *big.NVM, *big.Heap, big.Grid.PerOp)
	d := big.Sub(small)
	if d.NVM == big.NVM || d.Heap == big.Heap || d.Grid == big.Grid {
		t.Fatal("delta aliases the receiver")
	}
	if after := fmt.Sprintf("%+v %+v %+v", *big.NVM, *big.Heap, big.Grid.PerOp); after != before {
		t.Fatalf("Sub modified its receiver:\n%s\n%s", before, after)
	}
}
