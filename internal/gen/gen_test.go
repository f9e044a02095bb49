package gen

import (
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// demoSrc is the layout fixture: every primitive width, a byte array, a
// reference, a transient and an unexported field.
const demoSrc = `package p

//jnvm:persistent
type demo struct {
	A   int64
	B   int32
	C   bool
	D   float64
	E   uint16
	F   [12]byte
	Ref core.Ref ` + "`jnvm:\"ref\"`" + `
	T   string   ` + "`jnvm:\"transient\"`" + `
	h   int      // unexported: volatile
}
`

var (
	offRE  = regexp.MustCompile(`demoPOff(\w+)\s*=\s*(\d+)`)
	sizeRE = regexp.MustCompile(`const demoPSize = (\d+)`)
	refsRE = regexp.MustCompile(`Refs:\s+func\(\*core\.Object\) \[\]uint64 \{ return \[\]uint64\{([^}]*)\} \}`)
)

func TestLayoutOffsetsAndSize(t *testing.T) {
	out, err := GenerateSource("demo.go", []byte(demoSrc), SrcOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, m := range offRE.FindAllStringSubmatch(string(out), -1) {
		off, _ := strconv.ParseUint(m[2], 10, 64)
		got[m[1]] = off
	}
	// A:0(8) B:8(4) C:12(1) D:16(8) E:24(2) F:26(12) Ref:40(8) => size 48;
	// the transient T and the unexported h get no offset.
	want := map[string]uint64{"A": 0, "B": 8, "C": 12, "D": 16, "E": 24, "F": 26, "Ref": 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("offsets = %v, want %v", got, want)
	}
	if m := sizeRE.FindStringSubmatch(string(out)); m == nil || m[1] != "48" {
		t.Fatalf("size constant = %v, want 48", m)
	}
	if m := refsRE.FindStringSubmatch(string(out)); m == nil || m[1] != "demoPOffRef" {
		t.Fatalf("ref offsets = %v, want the one at offset 40", m)
	}
}

func TestSrcgenMatchesCommittedOutput(t *testing.T) {
	src, err := os.ReadFile("genexample/types.go")
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenerateSource("internal/gen/genexample/types.go", src, SrcOptions{Module: "repro"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("genexample/types_jnvm.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("generator output drifted from the committed types_jnvm.go; " +
			"re-run: go run ./cmd/jnvmgen internal/gen/genexample/types.go")
	}
}

// TestSrcgenAgreesWithRuntimeBinder pins genexample's Item to the layout
// the reflection binder of earlier builds computed for the same struct.
func TestSrcgenAgreesWithRuntimeBinder(t *testing.T) {
	src, err := os.ReadFile("genexample/types.go")
	if err != nil {
		t.Fatal(err)
	}
	out, err := GenerateSource("types.go", src, SrcOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"const ItemPSize = 48",
		"ItemPOffQuantity = 0", "ItemPOffPrice    = 8", "ItemPOffActive   = 16",
		"ItemPOffFlags    = 18", "ItemPOffCode     = 20", "ItemPOffName     = 40",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("generated output missing %q", want)
		}
	}
}

func TestSrcgenErrors(t *testing.T) {
	cases := map[string]string{
		"string field": `package p
//jnvm:persistent
type T struct{ S string }`,
		"marked non-struct": `package p
//jnvm:persistent
type T int`,
		"no persistent fields": `package p
//jnvm:persistent
type T struct{ s string }`,
		"slice field": `package p
//jnvm:persistent
type T struct{ B []byte }`,
		// A ref word is traced by recovery: only uint64, core.Ref or Ref.
		"string ref":  "package p\n//jnvm:persistent\ntype T struct{ S string `jnvm:\"ref\"` }",
		"float64 ref": "package p\n//jnvm:persistent\ntype T struct{ F float64 `jnvm:\"ref\"` }",
		"slice ref":   "package p\n//jnvm:persistent\ntype T struct{ B []byte `jnvm:\"ref\"` }",
		"int32 ref":   "package p\n//jnvm:persistent\ntype T struct{ R int32 `jnvm:\"ref\"` }",
	}
	for name, src := range cases {
		if _, err := GenerateSource("t.go", []byte(src), SrcOptions{}); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	// A file without markers yields no output and no error.
	out, err := GenerateSource("t.go", []byte("package p\ntype T struct{ X int64 }"), SrcOptions{})
	if err != nil || out != nil {
		t.Fatalf("unmarked file: %v %v", out, err)
	}
}
