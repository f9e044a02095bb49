package harness

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestQuickRuns is the benchmark's smoke: every workload once in -quick
// shape (a tenth of the dataset, under a second of timed phase, one
// recovery), two of them traced. It checks what the driver checks: no
// failed operation, every metric of the catalog present and finite, no
// end-to-end metric at 0.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the gridserver")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gridserver")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/gridserver").CombinedOutput(); err != nil {
		t.Fatalf("build gridserver: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"emb-a", false}, {"emb-b", true}, {"net-a", false}, {"net-counter", true}} {
		w, err := FindWorkload(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Workload: w, Seed: 11, Seconds: 0.75, Trace: tc.trace, Quick: true,
			WorkDir: dir, ServerBin: bin, TraceDir: filepath.Join(dir, "out")})
		if err != nil {
			t.Fatalf("%s trace=%v: %v", tc.workload, tc.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", tc.workload, tc.trace, res.Correct, res.Failed, res.Attempted)
		}
		defs := EndToEnd
		if tc.trace {
			defs = PerLayer
			if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+tc.workload+".json")); err != nil {
				t.Errorf("%s: no span file: %v", tc.workload, err)
			}
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, the catalog has %d", tc.workload, tc.trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", tc.workload, d.Name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", tc.workload, d.Name, m.Value)
			case !tc.trace && m.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", tc.workload, d.Name, m.Value)
			case m.Unit != d.Unit:
				t.Errorf("%s: metric %s has unit %q, want %q", tc.workload, d.Name, m.Unit, d.Unit)
			}
		}
	}
}
