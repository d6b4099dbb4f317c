package headroom_test

import (
	"reflect"
	"testing"
)

// TestReachableFixture runs TestReachable's analysis over the module in
// testdata/reach and pins its whole report: a dead function and the helper
// only it calls are found, a String and an Unwrap method of a reached type
// are not, an allowlisted function keeps its helper, and an allowlist entry
// main reaches is stale. Of lib.Fields, each field a form of write reaches
// and the json-tagged one pass; the one only withDefaults writes and the one
// only a test writes are unwritten, an allowlisted read-only field is not,
// and an allowlisted field the program writes is stale. Of lib.Params's
// callees, a parameter two calls set to one constant or to nil is fixed, as
// is one only a test varies; one with two different values, a single call,
// a function also used as a value, a method an interface reaches and a
// variadic parameter are not; an allowlisted fixed parameter passes, and an
// allowlisted parameter that is not fixed is stale.
func TestReachableFixture(t *testing.T) {
	rep, err := analyzeReach([]string{"testdata/reach"}, map[string]string{
		"lib.Kept": "allowlisted and unreached",
		"lib.Wrap": "allowlisted but main calls it",
	}, map[string]string{
		"lib.Fields.Read":  "allowlisted and only read",
		"lib.Fields.Keyed": "allowlisted but Use writes it",
	}, map[string]string{
		"lib.Allowed n": "allowlisted and fixed",
		"lib.Varied n":  "allowlisted but its calls differ",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &reachReport{
		decls: 28,
		unreached: []string{
			"lib/lib.go:21 lib.Dead",
			"lib/lib.go:24 lib.helper",
		},
		lines:   4,
		allowed: []string{"lib/lib.go:27 lib.Kept"},
		stale:   []string{"lib.Wrap: reached", "lib.Fields.Keyed: written", "lib.Varied n: not fixed"},
		fields:  17,
		tagged:  1,
		unwritten: []string{
			"lib/fields.go:19 lib.Fields.Defaulted",
			"lib/fields.go:20 lib.Fields.TestOnly",
		},
		fieldAllowed: []string{"lib/fields.go:21 lib.Fields.Read"},
		params:       12,
		exempt:       3,
		fewCalls:     3,
		fixed: []string{
			"lib/params.go:15 lib.Fixed n = 3",
			"lib/params.go:18 lib.Nilled p = nil",
			"lib/params.go:26 lib.TestVaried n = 1",
		},
		paramAllowed: []string{"lib/params.go:29 lib.Allowed n = 4"},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("report = %+v\nwant     %+v", rep, want)
	}
}
