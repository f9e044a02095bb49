package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fa"
	"repro/internal/ycsb"
)

// tiny is a scale that makes every experiment run in well under a second.
func tiny() Scale { return Scale{Records: 400, Operations: 1200, Threads: 1} }

func TestEnvBackends(t *testing.T) {
	for _, bk := range []BackendKind{JPDT, JPFA, PCJ, FS, TmpFS, NullFS, Volatile} {
		t.Run(string(bk), func(t *testing.T) {
			env, err := NewEnv(GridConfig{Backend: bk, Records: 100, FieldCount: 10, FieldLen: 100, FenceNs: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			cfg := ycsb.MustWorkload("A")
			cfg.RecordCount, cfg.Operations = 100, 300
			cfg = cfg.Defaults()
			if err := ycsb.Load(env.Grid, cfg); err != nil {
				t.Fatal(err)
			}
			res, err := ycsb.Run(env.Grid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d errors", res.Errors)
			}
		})
	}
}

func TestFig7ShapeAndPrint(t *testing.T) {
	// Each compared system's throughput is its median over five Fig7
	// runs, which interleave the systems, so a burst of load on a shared
	// host lands on one sample of each rather than deciding a comparison
	// (as in TestFig12Runs). J-PFA, printed but not compared, runs once.
	const runs = 5
	rows, err := Fig7(tiny(), []BackendKind{JPDT, JPFA, FS, PCJ})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*4 {
		t.Fatalf("rows = %d", len(rows))
	}
	kops := map[string][]float64{}
	for i, run := 0, rows; i < runs; i++ {
		if i > 0 {
			if run, err = Fig7(tiny(), []BackendKind{JPDT, FS, PCJ}); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range run {
			if r.Errors != 0 {
				t.Fatalf("%s/%s had %d errors", r.Workload, r.Backend, r.Errors)
			}
			kops[r.Workload+string(r.Backend)] = append(kops[r.Workload+string(r.Backend)], r.KopsSec)
		}
	}
	byKey := map[string]float64{}
	for k, xs := range kops {
		slices.Sort(xs)
		byKey[k] = xs[len(xs)/2]
	}
	// Shape assertions from the paper: J-PDT beats FS and PCJ on every
	// workload.
	for _, w := range []string{"A", "B", "C", "F"} {
		if byKey[w+string(JPDT)] <= byKey[w+string(FS)] {
			t.Errorf("workload %s: J-PDT (%f) not faster than FS (%f)",
				w, byKey[w+string(JPDT)], byKey[w+string(FS)])
		}
		if byKey[w+string(JPDT)] <= byKey[w+string(PCJ)] {
			t.Errorf("workload %s: J-PDT not faster than PCJ", w)
		}
	}
	var buf bytes.Buffer
	PrintFig7(&buf, rows)
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatalf("print output:\n%s", buf.String())
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8(tiny(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Figure 8's robust shape: FS (real files + marshalling) is slower
	// than Volatile at every size. The in-memory marshalling backends
	// are only separable at real scale, so they are logged, not asserted,
	// at this test's tiny scale.
	byKey := map[string]time.Duration{}
	for _, r := range rows {
		byKey[string(r.Backend)+string(rune('0'+r.RecordKB))] = r.Completion
	}
	for _, kb := range []int{1, 4} {
		v := byKey[string(Volatile)+string(rune('0'+kb))]
		if fs := byKey[string(FS)+string(rune('0'+kb))]; fs < v {
			t.Errorf("%dKB: FS (%v) beat Volatile (%v)", kb, fs, v)
		}
		for _, bk := range []BackendKind{NullFS, TmpFS} {
			if d := byKey[string(bk)+string(rune('0'+kb))]; d < v {
				t.Logf("%dKB: %s (%v) under Volatile (%v) at tiny scale (noise)", kb, bk, d, v)
			}
		}
	}
	var buf bytes.Buffer
	PrintFig8(&buf, rows)
	if !strings.Contains(buf.String(), "recordKB") {
		t.Fatal("print output broken")
	}
}

func TestFig9Sweeps(t *testing.T) {
	sc := tiny()
	t.Run("a", func(t *testing.T) {
		rows, err := Fig9("a", sc, []int{0, 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		var buf bytes.Buffer
		PrintFig9(&buf, "a", rows)
	})
	t.Run("b", func(t *testing.T) {
		rows, err := Fig9("b", sc, []int{100, 200})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
	})
	t.Run("c", func(t *testing.T) {
		rows, err := Fig9("c", sc, []int{10, 40})
		if err != nil {
			t.Fatal(err)
		}
		// FS read latency must degrade with more fields (marshalling
		// whole records); J-PDT only mildly.
		var fsSmall, fsBig time.Duration
		for _, r := range rows {
			if r.Backend == FS && r.Value == 10 {
				fsSmall = r.Read
			}
			if r.Backend == FS && r.Value == 40 {
				fsBig = r.Read
			}
		}
		if fsBig < fsSmall {
			t.Logf("FS read did not degrade with field count (small=%v big=%v) — noisy box?", fsSmall, fsBig)
		}
	})
	t.Run("d", func(t *testing.T) {
		rows, err := Fig9("d", sc, []int{1, 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
	})
}

func TestFig10Runs(t *testing.T) {
	rows, err := Fig10(tiny(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintFig10(&buf, rows)
}

func TestFig11Runs(t *testing.T) {
	tls, err := Fig11(Fig11Config{
		Accounts:   800,
		Clients:    2,
		RunFor:     500 * time.Millisecond,
		CrashAfter: 250 * time.Millisecond,
		Bucket:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 4 {
		t.Fatalf("systems = %d", len(tls))
	}
	for _, tl := range tls {
		if tl.NominalBefore() <= 0 {
			t.Fatalf("%s: no pre-crash throughput", tl.System)
		}
	}
	var buf bytes.Buffer
	PrintFig11(&buf, tls)
	if !strings.Contains(buf.String(), "J-PFA-nogc") {
		t.Fatal("missing system in print")
	}
}

func TestFig1Fig2Run(t *testing.T) {
	rows1, err := Fig1(Scale{Records: 4000, Operations: 8000}, []int{1, 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows1) != 2 {
		t.Fatalf("fig1 rows = %d", len(rows1))
	}
	// More cache => a larger managed live set => more objects marked per
	// collection (the Figure 1 mechanism). The wall-clock consequence,
	// GCCPUTime, is load-sensitive and left to -bench.
	if rows1[1].LiveObjects <= rows1[0].LiveObjects || rows1[1].MarkedObjects <= rows1[0].MarkedObjects {
		t.Errorf("GC work did not grow with cache ratio: live %d -> %d, marked %d -> %d",
			rows1[0].LiveObjects, rows1[1].LiveObjects, rows1[0].MarkedObjects, rows1[1].MarkedObjects)
	}
	var buf bytes.Buffer
	PrintFig1(&buf, rows1)

	rows2, err := Fig2(Scale{Operations: 6000}, []int{2, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 2 {
		t.Fatalf("fig2 rows = %d", len(rows2))
	}
	if rows2[1].MarkedObjects <= rows2[0].MarkedObjects {
		t.Errorf("GC work did not grow with dataset: marked %d -> %d",
			rows2[0].MarkedObjects, rows2[1].MarkedObjects)
	}
	if rows2[1].LiveObjects <= rows2[0].LiveObjects {
		t.Error("live set did not grow")
	}
	PrintFig2(&buf, rows2)
}

func TestTable3Runs(t *testing.T) {
	rows, err := Table3(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GBps <= 0 {
			t.Fatalf("%+v: no bandwidth", r)
		}
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "native") {
		t.Fatal("print broken")
	}
}

func TestFig12Runs(t *testing.T) {
	// Each system's completion time is its median over five Fig12 runs,
	// which interleave the systems, so a burst of load on a shared host
	// lands on one sample of each rather than deciding a comparison.
	const runs = 5
	var rows []Fig12Row
	times := map[string][]time.Duration{}
	for i := 0; i < runs; i++ {
		var err error
		if rows, err = Fig12(Scale{Records: 500, Operations: 3000}); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 7 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			times[r.Structure+r.Impl] = append(times[r.Structure+r.Impl], r.Completion)
		}
	}
	byKey := map[string]time.Duration{}
	for k, ts := range times {
		slices.Sort(ts)
		byKey[k] = ts[runs/2]
	}
	// The persistent variants must cost more than volatile but stay in
	// the same order of magnitude. The bound is loose (60x) because the
	// race detector inflates the instrumented persistent path far more
	// than the volatile map baseline.
	for _, s := range []string{"HashMap", "TreeMap", "SkipListMap"} {
		vol, per := byKey[s+"Volatile"], byKey[s+"J-PDT"]
		if per < vol {
			t.Errorf("%s: persistent (%v) beat volatile (%v)?", s, per, vol)
		}
		if per > 60*vol {
			t.Errorf("%s: persistent %v vs volatile %v — more than 60x apart", s, per, vol)
		}
	}
	var buf bytes.Buffer
	PrintFig12(&buf, rows)
	if !strings.Contains(buf.String(), "SkipListMap") {
		t.Fatal("print broken")
	}
}

func TestAblations(t *testing.T) {
	const nV = 2000
	rowsV, err := AblationValidation(nV, 120)
	if err != nil {
		t.Fatal(err)
	}
	// Batched validation issues one fence per batch instead of one per
	// object, at the same few pwb per publish (`paper -exp ablation` times it).
	for i, batch := range []uint64{1, 8, 64, 512} {
		if want := (nV + batch - 1) / batch; rowsV[i].Fences != want {
			t.Errorf("validation batch=%d issued %d fences, want %d", batch, rowsV[i].Fences, want)
		}
		if rowsV[i].PWBs > 6*nV {
			t.Errorf("validation batch=%d issued %d pwb for %d publishes, want at most 6 each", batch, rowsV[i].PWBs, nV)
		}
	}
	rowsP, err := AblationSmallPool(5000, 100)
	if err != nil {
		t.Fatal(err)
	}
	var pooled, whole float64
	for _, r := range rowsP {
		if r.Variant == "pooled" {
			pooled = r.Aux
		} else {
			whole = r.Aux
		}
	}
	if pooled >= whole {
		t.Errorf("pooling did not save space: %.0f vs %.0f bytes/obj", pooled, whole)
	}
	rowsL, err := AblationLogSlots(300, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsL) != 4 {
		t.Fatalf("log-slot rows = %d", len(rowsL))
	}
	rowsF, err := AblationFenceCost(2000)
	if err != nil {
		t.Fatal(err)
	}
	// Every latency runs the same fences, at least one per update, so the
	// modeled cost differs by exactly Fences × Δlatency.
	for _, r := range rowsF {
		if r.Fences < 2000 || r.Fences != rowsF[0].Fences {
			t.Errorf("fence-cost %s issued %d fences, want the same >= 2000 as %s (%d)",
				r.Variant, r.Fences, rowsF[0].Variant, rowsF[0].Fences)
		}
	}
	var buf bytes.Buffer
	PrintAblation(&buf, append(append(append(rowsV, rowsP...), rowsL...), rowsF...))
	if !strings.Contains(buf.String(), "fence-cost") {
		t.Fatal("print broken")
	}
}

func TestEnvCommitModes(t *testing.T) {
	for _, tc := range []struct {
		commit string
		want   fa.CommitMode
	}{
		{"", fa.CommitPerTx},
		{"per-tx", fa.CommitPerTx},
		{"async", fa.CommitAsync},
	} {
		t.Run("commit="+tc.commit, func(t *testing.T) {
			env, err := NewEnv(GridConfig{Backend: JPFA, Records: 100, FieldCount: 10, FieldLen: 100, FenceNs: 1, Commit: tc.commit})
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			if got := env.Mgr.CommitMode(); got != tc.want {
				t.Fatalf("CommitMode = %v, want %v", got, tc.want)
			}
			cfg := ycsb.MustWorkload("A")
			cfg.RecordCount, cfg.Operations = 100, 300
			cfg = cfg.Defaults()
			if err := ycsb.Load(env.Grid, cfg); err != nil {
				t.Fatal(err)
			}
			res, err := ycsb.Run(env.Grid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d errors", res.Errors)
			}
			// Close's drain (async) plus recovery-free teardown must leave
			// no acknowledged commit behind the watermark.
			if w := env.Mgr.DrainDurable(); env.Mgr.CommitMode() == fa.CommitAsync && w != env.Mgr.IssuedTickets() {
				t.Fatalf("watermark %d != issued %d", w, env.Mgr.IssuedTickets())
			}
		})
	}
	// The removed sync group mode is refused like any unknown one.
	for _, commit := range []string{"group", "bogus"} {
		t.Run("commit="+commit, func(t *testing.T) {
			if _, err := NewEnv(GridConfig{Backend: JPFA, Records: 100, FieldCount: 10, FieldLen: 100, Commit: commit}); err == nil {
				t.Fatalf("commit mode %q accepted", commit)
			}
		})
	}
}

// TestCapabilityTable pins what each J-NVM backend offers against one
// literal table, and the read path the grid adopts over it.
func TestCapabilityTable(t *testing.T) {
	for _, tc := range []struct {
		kind               BackendKind
		commit, caps, path string
	}{
		{JPDT, "", "view", "view"},
		{JPFA, "per-tx", "view,delta", "view"},
		{JPFA, "async", "view,delta", "view"},
		{PCJ, "", "", "locked"},
	} {
		env, err := NewEnv(GridConfig{Backend: tc.kind, Records: 100, FieldCount: 1, FieldLen: 8, FenceNs: 1, Commit: tc.commit})
		if err != nil {
			t.Fatal(err)
		}
		c := env.Grid.Backend().Caps()
		var offers []string
		for _, f := range []struct {
			name    string
			present bool
		}{{"view", c.View != nil}, {"delta", c.Delta != nil}} {
			if f.present {
				offers = append(offers, f.name)
			}
		}
		if got := strings.Join(offers, ","); got != tc.caps {
			t.Errorf("%s %s offers [%s], want [%s]", tc.kind, tc.commit, got, tc.caps)
		}
		if got := env.Grid.ReadPath(); got != tc.path {
			t.Errorf("%s %s: grid read path %q, want %q", tc.kind, tc.commit, got, tc.path)
		}
		env.Close()
	}
}
