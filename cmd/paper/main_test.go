package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestEveryExperimentPrintsItsTitle runs each row of the table at a
// scale that takes seconds and checks it prints its own table.
func TestEveryExperimentPrintsItsTitle(t *testing.T) {
	titles := map[string]string{
		"fig1": "Figure 1 —", "fig2": "Figure 2 —", "fig7": "Figure 7 —", "fig8": "Figure 8 —",
		"fig9a": "Figure 9a —", "fig9b": "Figure 9b —", "fig9c": "Figure 9c —", "fig9d": "Figure 9d —",
		"fig10": "Figure 10 —", "fig11": "Figure 11 —", "fig12": "Figure 12 —",
		"table1": "Table 1 —", "table3": "Table 3 —", "frag": "Internal fragmentation",
		"ablation": "Ablation —",
	}
	if len(titles) != len(experiments) {
		t.Fatalf("%d titles for %d experiments", len(titles), len(experiments))
	}
	// Table 1 scans trees named relative to the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	sc := bench.Scale{Records: 200, Operations: 400, Threads: 1, Run: 300 * time.Millisecond}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := e.run(sc, &buf); err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(buf.String(), "\n")
			if title := titles[e.name]; title == "" || !strings.HasPrefix(first, title) {
				t.Fatalf("first line %q, want the title %q", first, title)
			}
		})
	}
}

func TestRunFlags(t *testing.T) {
	t.Run("unknown experiment", func(t *testing.T) {
		var out, errOut bytes.Buffer
		if code := run([]string{"-exp", "frag,fig99"}, &out, &errOut); code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
		if out.Len() != 0 {
			t.Fatalf("ran before refusing:\n%s", out.String())
		}
		for _, e := range experiments {
			if !strings.Contains(errOut.String(), e.name) {
				t.Fatalf("the refusal does not list %s: %s", e.name, errOut.String())
			}
		}
	})
	t.Run("json", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.json")
		var out, errOut bytes.Buffer
		if code := run([]string{"-exp", "frag", "-json", path}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		if !strings.HasPrefix(out.String(), "# commit ") {
			t.Fatalf("no header line:\n%s", out.String())
		}
		var got map[string][]bench.FragRow
		buf, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(buf, &got)
		}
		if err != nil || len(got["frag"]) != 3 {
			t.Fatalf("json %s: %v", buf, err)
		}
	})
	t.Run("bad commit", func(t *testing.T) {
		if code := run([]string{"-exp", "frag", "-commit", "group"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
	})
}
