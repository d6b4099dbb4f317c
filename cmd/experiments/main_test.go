package main

import (
	"context"
	"testing"
)

// TestHelpIsNoError: -h prints the usage and succeeds without running an
// experiment.
func TestHelpIsNoError(t *testing.T) {
	if err := run(context.Background(), []string{"-h"}); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
}
