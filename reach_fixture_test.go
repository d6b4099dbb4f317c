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
// and an allowlisted field the program writes is stale.
func TestReachableFixture(t *testing.T) {
	rep, err := analyzeReach([]string{"testdata/reach"}, map[string]string{
		"lib.Kept": "allowlisted and unreached",
		"lib.Wrap": "allowlisted but main calls it",
	}, map[string]string{
		"lib.Fields.Read":  "allowlisted and only read",
		"lib.Fields.Keyed": "allowlisted but Use writes it",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &reachReport{
		decls: 15,
		unreached: []string{
			"lib/lib.go:21 lib.Dead",
			"lib/lib.go:24 lib.helper",
		},
		lines:   4,
		allowed: []string{"lib/lib.go:27 lib.Kept"},
		stale:   []string{"lib.Wrap: reached", "lib.Fields.Keyed: written"},
		fields:  17,
		tagged:  1,
		unwritten: []string{
			"lib/fields.go:19 lib.Fields.Defaulted",
			"lib/fields.go:20 lib.Fields.TestOnly",
		},
		fieldAllowed: []string{"lib/fields.go:21 lib.Fields.Read"},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("report = %+v\nwant     %+v", rep, want)
	}
}
