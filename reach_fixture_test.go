package headroom_test

import (
	"reflect"
	"testing"
)

// TestReachableFixture runs TestReachable's analysis over the module in
// testdata/reach and pins its whole report: a dead function and the helper
// only it calls are found, a String and an Unwrap method of a reached type
// are not, an allowlisted function keeps its helper, and an allowlist entry
// main reaches is stale.
func TestReachableFixture(t *testing.T) {
	rep, err := analyzeReach([]string{"testdata/reach"}, map[string]string{
		"lib.Kept": "allowlisted and unreached",
		"lib.Wrap": "allowlisted but main calls it",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &reachReport{
		decls: 11,
		unreached: []string{
			"lib/lib.go:21 lib.Dead",
			"lib/lib.go:24 lib.helper",
		},
		lines:   4,
		allowed: []string{"lib/lib.go:27 lib.Kept"},
		stale:   []string{"lib.Wrap: reached"},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("report = %+v\nwant     %+v", rep, want)
	}
}
