package harness

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

var testWorkload = &Workload{Name: "t", Records: 1000, Fields: 4, FieldLen: 40,
	ReadFrac: 0.5, Write: OpUpdate, Scramble: true, ChunkOps: 2000}

func drawOps(w *Workload, seed uint64, stride, lane, n int) []Op {
	s := NewOpStream(w, seed, stride, lane)
	ops := make([]Op, n)
	for i := range ops {
		s.Next(&ops[i])
	}
	return ops
}

func TestSeedDeterminesTheStream(t *testing.T) {
	a, b := drawOps(testWorkload, 7, 1, 0, 5000), drawOps(testWorkload, 7, 1, 0, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two streams of seed 7: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := drawOps(testWorkload, 8, 1, 0, 5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("seeds 7 and 8 agree on %d of %d ops", same, len(a))
	}
}

func TestLanesOwnDisjointRecords(t *testing.T) {
	for lane := 0; lane < 2; lane++ {
		for _, op := range drawOps(testWorkload, 3, 2, lane, 5000) {
			if op.Key%2 != lane || op.Key >= testWorkload.Records {
				t.Fatalf("lane %d drew record %d", lane, op.Key)
			}
		}
	}
}

func TestHotZipfianFavoursLowIndices(t *testing.T) {
	w := *testWorkload
	w.Scramble = false
	counts := make([]int, w.Records)
	for _, op := range drawOps(&w, 1, 1, 0, 100_000) {
		counts[op.Key]++
	}
	if counts[0] < counts[1] || counts[1] < counts[10] || counts[10] < counts[500] {
		t.Fatalf("unscrambled zipfian is not hot at the low end: %d %d %d %d", counts[0], counts[1], counts[10], counts[500])
	}
	// theta 0.99 over 1000 items puts about 13 % of the draws on item 0.
	if share := float64(counts[0]) / 100_000; share < 0.10 || share > 0.17 {
		t.Fatalf("item 0 drew a share of %.3f", share)
	}
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := NewRNG(5)
	var h Hist
	xs := make([]float64, 200_000)
	for i := range xs {
		// log-uniform over 100 ns .. 10 ms: every octave of the range is hit
		v := 100 * math.Pow(1e5, rng.Float64())
		xs[i] = math.Floor(v)
		h.Add(uint64(v))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := xs[int(q*float64(len(xs)))-1]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("q%.3f: histogram says %.1f, exact is %.1f (%.2f%% off)", q, got, exact, 100*rel)
		}
	}
	if got, want := h.Mean(), mean(xs); math.Abs(got-want) > 1e-6*want {
		t.Errorf("mean %.3f, want %.3f", got, want)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestHistBucketsTileTheRange(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi && v != math.MaxUint64 {
			t.Errorf("%d falls in bucket [%g,%g)", v, lo, hi)
		}
		if v >= 128 && (hi-lo)/lo > 1.0/128 {
			t.Errorf("bucket of %d is %.3f%% wide", v, 100*(hi-lo)/lo)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10: %g, %g", q1, q3)
	}
	// statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
	q1, q3 = Quartiles([]float64{2, 4, 4, 5, 7})
	if q1 != 3 || q3 != 6 {
		t.Fatalf("quartiles of 2,4,4,5,7: %g, %g", q1, q3)
	}
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median %g", m)
	}
}

func TestValueCodec(t *testing.T) {
	v := make([]byte, 100)
	EncodeValue(v, 1234, 7, 99)
	if got, err := DecodeValue(v, 1234, 7); err != nil || got != 99 {
		t.Fatalf("round trip: version %d, err %v", got, err)
	}
	if _, err := DecodeValue(v, 1235, 7); err == nil {
		t.Fatal("a value of another record passed")
	}
	v[60] ^= 1
	if _, err := DecodeValue(v, 1234, 7); err == nil {
		t.Fatal("a flipped bit passed")
	}
}

// faultyTarget is the fake backend of the failed-operation tests.
type faultyTarget struct {
	*MemTarget
	corruptReads bool
	dropWrites   bool
}

func (f *faultyTarget) Read(key string, consume func(name string, value []byte)) error {
	return f.MemTarget.Read(key, func(name string, value []byte) {
		if f.corruptReads {
			value = append([]byte(nil), value...)
			value[len(value)-1] ^= 0x40
		}
		consume(name, value)
	})
}

func (f *faultyTarget) Update(key string, fields []Field) error {
	if f.dropWrites {
		return nil // acknowledged, never stored
	}
	return f.MemTarget.Update(key, fields)
}

func TestHealthyTargetHasNoFailedOps(t *testing.T) {
	o := NewOracle(testWorkload)
	p := runChunks(newDriver(testWorkload, o, 1, nil), NewMemTarget(o), 20_000, 0, nil, nil, "")
	if p.Fails.N != 0 {
		t.Fatalf("%d failed ops on a correct target: %v", p.Fails.N, p.Fails.Msgs)
	}
	var fails Failures
	if n := auditStack(NewMemTarget(o), NewOracle(testWorkload), &fails); n != testWorkload.Records || fails.N != 0 {
		t.Fatalf("audit of a fresh dataset: %d records, %d failures %v", n, fails.N, fails.Msgs)
	}
}

func TestCorruptedValueIsAFailedOp(t *testing.T) {
	o := NewOracle(testWorkload)
	ft := &faultyTarget{MemTarget: NewMemTarget(o), corruptReads: true}
	p := runChunks(newDriver(testWorkload, o, 1, nil), ft, 10_000, 0, nil, nil, "")
	reads := int(p.Read.Count())
	if reads == 0 || p.Fails.N != reads {
		t.Fatalf("%d reads returned corrupted values, %d counted as failed", reads, p.Fails.N)
	}
}

func TestDroppedAckedWriteIsAFailedOp(t *testing.T) {
	o := NewOracle(testWorkload)
	ft := &faultyTarget{MemTarget: NewMemTarget(o), dropWrites: true}
	p := runChunks(newDriver(testWorkload, o, 1, nil), ft, 10_000, 0, nil, nil, "")
	if p.Fails.N == 0 {
		t.Fatal("reads of records whose acknowledged updates were dropped all passed")
	}
	// The post-crash audit finds every record that lost an acked write.
	lost := 0
	for k := range o.keys {
		for _, v := range o.Acked(k) {
			if v > 0 {
				lost++
				break
			}
		}
	}
	var fails Failures
	auditStack(ft, o, &fails)
	if lost == 0 || fails.N != lost {
		t.Fatalf("%d records lost an acknowledged write, the audit failed %d", lost, fails.N)
	}
}

func TestUnackedWriteMayOrMayNotSurvive(t *testing.T) {
	// A write issued but not acknowledged when the crash came is legal
	// either way; the audit must accept both images.
	for _, applied := range []bool{false, true} {
		o := NewOracle(testWorkload)
		mt := NewMemTarget(o)
		op := Op{Kind: OpUpdate, Key: 5, Field: 2}
		val := make([]byte, testWorkload.FieldLen)
		o.Issue(&op, val) // never acked
		if applied {
			if err := mt.Update(o.keys[5], []Field{{Name: o.names[2], Value: val}}); err != nil {
				t.Fatal(err)
			}
		}
		var fails Failures
		auditStack(mt, o, &fails)
		if fails.N != 0 {
			t.Fatalf("applied=%v: audit rejected a legal image: %v", applied, fails.Msgs)
		}
	}
}

func TestCounterOracle(t *testing.T) {
	w := &Workload{Name: "c", Records: 100, Fields: 1, FieldLen: 8, ReadFrac: 0.1, Write: OpAddDelta, ChunkOps: 1000}
	o := NewOracle(w)
	mt := NewMemTarget(o)
	p := runChunks(newDriver(w, o, 2, nil), mt, 5000, 0, nil, nil, "")
	if p.Fails.N != 0 {
		t.Fatalf("counter stream failed %d ops: %v", p.Fails.N, p.Fails.Msgs)
	}
	// Lose one acknowledged increment.
	if err := mt.AddDelta(o.keys[0], o.names[0], -1); err != nil {
		t.Fatal(err)
	}
	var fails Failures
	auditStack(mt, o, &fails)
	if fails.N != 1 {
		t.Fatalf("audit failed %d records after one lost increment", fails.N)
	}
}

func TestWindowReadBoundsAreAsOfSend(t *testing.T) {
	w := *testWorkload
	w.ReadFrac = 0.5
	o := NewOracle(&w)
	mt := NewMemTarget(o)
	wd := newWindowDriver(&w, o, 9, 1, 0, Depth)
	for round := 0; round < 200; round++ {
		wd.fill()
		// Apply the whole window in order, as the server does, then settle.
		fields := make([][]Field, Depth)
		for i, op := range wd.ops {
			if op.Kind == OpRead {
				_ = mt.Read(o.keys[op.Key], func(name string, value []byte) {
					fields[i] = append(fields[i], Field{Name: name, Value: append([]byte(nil), value...)})
				})
			} else if err := mt.Update(o.keys[op.Key], []Field{{Name: o.names[op.Field], Value: wd.vals[i]}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range wd.ops {
			if err := wd.settle(i, fields[i]); err != nil {
				t.Fatalf("round %d slot %d: %v", round, i, err)
			}
		}
	}
}

func TestManifestMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []MetricDef             `json:"end_to_end"`
		PerLayer  []MetricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, doc.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the harness", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, EndToEnd)
	same("per_layer", doc.PerLayer, PerLayer)
}
