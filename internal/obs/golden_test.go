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
// marshalled snapshot shows every key and a Sub or Add result shows which
// rule each field followed (the n-th leaf gets n squared, so no two deltas
// or sums coincide). A filler with a larger base and more samples dominates
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
		// drop out), scan exists only on the larger side.
		m := map[string]HistogramSnapshot{"read": histogramOf(f.samples), "insert": histogramOf(4)}
		if f.samples > 4 {
			m["scan"] = histogramOf(f.samples)
		}
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

// goldenLines renders every snapshot type, and every Sub and Add the
// parent commit of the derive.go refactor had, on fixed inputs. The
// committed testdata/snapshots.golden was produced by this function at
// that parent, from the hand-written method bodies.
func goldenLines(t *testing.T) []string {
	small, big := filled[StackSnapshot](0, 4), filled[StackSnapshot](1000, 9)
	// A previous snapshot that lacks two layers and carries a different
	// pool count: absent layers delta against zero, the per-pool
	// breakdown keeps the receiver's entries.
	partial := filled[StackSnapshot](0, 4)
	partial.NVM, partial.Grid = nil, nil
	partial.Shard.PerPool = partial.Shard.PerPool[:1]
	// A receiver without some layers: they stay absent.
	sparse := filled[StackSnapshot](1000, 9)
	sparse.Heap, sparse.Recovery = nil, nil

	recSmall, recBig := filled[RecoverySnapshot](0, 0), filled[RecoverySnapshot](1000, 0)
	srvSmall, srvBig := filled[ServerSnapshot](0, 4), filled[ServerSnapshot](1000, 9)

	var lines []string
	emit := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, name+"\t"+string(b))
	}
	emit("stack", big)
	emit("stack.sub", big.Sub(small))
	emit("stack.sub.partial_prev", big.Sub(partial))
	emit("stack.sub.sparse_receiver", sparse.Sub(small))
	emit("nvm.add", big.NVM.Add(*small.NVM))
	emit("heap.add", big.Heap.Add(*small.Heap))
	emit("fa.add", big.FA.Add(*small.FA))
	emit("shard.sub", big.Shard.Sub(*small.Shard))
	emit("grid.sub", big.Grid.Sub(*small.Grid))
	emit("recovery", recBig)
	emit("recovery.sub", recBig.Sub(recSmall))
	emit("recovery.add", recBig.Add(recSmall)) // Workers: max is the receiver's
	emit("recovery.add.swapped", recSmall.Add(recBig))
	emit("server", srvBig)
	emit("server.sub", srvBig.Sub(srvSmall))
	return lines
}

// TestSnapshotsMatchParent is the golden comparison: same JSON keys in the
// same order, and the same Sub and Add results (gauges, the Workers max,
// derived columns, dropped zero-count ops, absent layers) as the
// hand-written bodies produced.
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

// TestSubAddLeaveInputsAlone: results share no slice, map or pointer with
// their inputs in a way that lets combining write through.
func TestSubAddLeaveInputsAlone(t *testing.T) {
	small, big := filled[StackSnapshot](0, 4), filled[StackSnapshot](1000, 9)
	before := fmt.Sprintf("%+v %+v %+v", *big.NVM, big.Grid.PerOp, big.Shard.PerPool)
	d := big.Sub(small)
	if d.NVM == big.NVM || &d.Shard.PerPool[0] == &big.Shard.PerPool[0] {
		t.Fatal("delta aliases the receiver")
	}
	if after := fmt.Sprintf("%+v %+v %+v", *big.NVM, big.Grid.PerOp, big.Shard.PerPool); after != before {
		t.Fatalf("Sub modified its receiver:\n%s\n%s", before, after)
	}
}

// TestPoolSnapshotAdd: folding the per-pool breakdown sums each layer as
// that layer's own Add does, gauges included.
func TestPoolSnapshotAdd(t *testing.T) {
	sh := filled[ShardSnapshot](0, 4)
	var total PoolSnapshot
	for _, p := range sh.PerPool {
		total = total.Add(p)
	}
	p0, p1 := sh.PerPool[0], sh.PerPool[1]
	if total.NVM != p0.NVM.Add(p1.NVM) || total.Heap != p0.Heap.Add(p1.Heap) || total.FA != p0.FA.Add(p1.FA) {
		t.Fatalf("total %+v is not the per-layer sum of %+v and %+v", total, p0, p1)
	}
	if total.Heap.Bump != p0.Heap.Bump+p1.Heap.Bump || total.FA.WatermarkLag != p0.FA.WatermarkLag+p1.FA.WatermarkLag {
		t.Fatal("gauges did not sum")
	}
}
