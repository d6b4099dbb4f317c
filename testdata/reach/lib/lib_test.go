package lib

import "testing"

func TestUse(t *testing.T) {
	f := Fields{TestOnly: 1}
	if f.TestOnly != 1 {
		t.Fatal("TestOnly not set")
	}
}
