package lib

import "testing"

func TestUse(t *testing.T) {
	f := Fields{TestOnly: 1}
	if f.TestOnly != 1 {
		t.Fatal("TestOnly not set")
	}
}

func TestTestVaried(t *testing.T) {
	if TestVaried(2) != 2 {
		t.Fatal("TestVaried(2) != 2")
	}
}
