package crashmc

import (
	"strings"
	"testing"
)

// TestOracle holds the oracle type to its events directly, not only
// through exploration: each case replays events on a fresh oracle and
// checks which recovered states of key "k" it accepts.
func TestOracle(t *testing.T) {
	empty := render(map[string]string{})
	rec := func(v string) string { return render(map[string]string{"v": v}) }
	cases := []struct {
		name   string
		events func(o oracle)
		accept []string
		reject []string
	}{{
		name:   "untouched key is absent",
		events: func(o oracle) {},
		accept: []string{absent},
		reject: []string{empty, rec("")},
	}, {
		name: "every issued but unacked state",
		events: func(o oracle) {
			o.issue("k", rec("a"))
			o.issue("k", rec("b"))
			o.issue("k", absent)
			o.issue("k", empty)
		},
		accept: []string{absent, rec("a"), rec("b"), empty},
		reject: []string{rec("c")},
	}, {
		name:   "a state issued before the last ack",
		events: func(o oracle) { o.issue("k", rec("a")); o.issue("k", rec("b")); o.ack("k"); o.issue("k", rec("c")) },
		accept: []string{rec("b"), rec("c")},
		reject: []string{absent, rec("a")},
	}, {
		name:   "an ack of every key",
		events: func(o oracle) { o.issue("k", rec("a")); o.issue("j", rec("b")); o.ack() },
		accept: []string{rec("a")},
		reject: []string{absent},
	}, {
		name:   "an ack of another key",
		events: func(o oracle) { o.issue("k", rec("a")); o.ack("j") },
		accept: []string{absent, rec("a")},
	}, {
		name:   "a partial fold",
		events: func(o oracle) { o.issue("k", "1"); o.ack(); o.fold("k", "3"); o.fold("k", "6"); o.fold("k", "10") },
		accept: []string{"1", "10"},
		reject: []string{"3", "6"},
	}, {
		name:   "a fold keeps the issued state it starts from",
		events: func(o oracle) { o.issue("k", "1"); o.ack(); o.issue("k", "5"); o.fold("k", "7"); o.fold("k", "9") },
		accept: []string{"1", "5", "9"},
		reject: []string{"7"},
	}, {
		name:   "an issue keeps the fold it follows",
		events: func(o oracle) { o.fold("k", "2"); o.fold("k", "4"); o.issue("k", "8") },
		accept: []string{absent, "4", "8"},
		reject: []string{"2"},
	}, {
		name:   "another key's value",
		events: func(o oracle) { o.issue("k", rec("a")); o.issue("j", rec("b")) },
		accept: []string{absent, rec("a")},
		reject: []string{rec("b")},
	}, {
		name:   "empty where absent is legal",
		events: func(o oracle) { o.issue("k", rec("a")); o.issue("k", absent); o.ack() },
		accept: []string{absent},
		reject: []string{empty, rec(""), rec("a")},
	}, {
		name:   "absent where empty is legal",
		events: func(o oracle) { o.issue("k", empty); o.ack() },
		accept: []string{empty},
		reject: []string{absent, rec("")},
	}}
	for _, c := range cases {
		o := oracle{}
		c.events(o)
		for _, s := range c.accept {
			if err := o.check("k", s); err != nil {
				t.Errorf("%s: rejects %s: %v", c.name, s, err)
			}
		}
		for _, s := range c.reject {
			if o.check("k", s) == nil {
				t.Errorf("%s: accepts %s", c.name, s)
			}
		}
	}
}

// TestOracleError checks that a rejection names the key, the recovered
// state and the legal states in sorted order.
func TestOracleError(t *testing.T) {
	o := oracle{}
	o.issue("k", "b")
	o.issue("k", "a")
	err := o.check("k", "c")
	if err == nil || !strings.Contains(err.Error(), "key k: recovered c, legal: <absent> | a | b") {
		t.Fatalf("error %v does not name the key, the state and the sorted legal states", err)
	}
}

// TestRenderCanonical checks that a record's state does not depend on the
// order its fields were set in, and that values are quoted so no field
// boundary can be forged.
func TestRenderCanonical(t *testing.T) {
	a := map[string]string{}
	a["x"], a["y"] = "1", "2"
	b := map[string]string{}
	b["y"], b["x"] = "2", "1"
	if render(a) != render(b) {
		t.Fatalf("render depends on insertion order: %s vs %s", render(a), render(b))
	}
	if render(map[string]string{"x": `1" "y"="2`}) == render(a) {
		t.Fatal("a value forged a second field")
	}
}
