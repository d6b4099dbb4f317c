package stats

import "testing"

func TestKFoldPartitions(t *testing.T) {
	tests := []struct {
		n, k int
	}{
		{10, 5}, {11, 5}, {100, 3}, {5, 5}, {7, 2},
	}
	for _, tt := range tests {
		folds, err := KFold(tt.n, tt.k, 1)
		if err != nil {
			t.Fatalf("KFold(%d, %d): %v", tt.n, tt.k, err)
		}
		if len(folds) != tt.k {
			t.Fatalf("got %d folds, want %d", len(folds), tt.k)
		}
		seen := make(map[int]int)
		for _, f := range folds {
			if len(f.Train)+len(f.Test) != tt.n {
				t.Errorf("fold sizes %d+%d != %d", len(f.Train), len(f.Test), tt.n)
			}
			for _, i := range f.Test {
				seen[i]++
			}
			// No overlap between train and test.
			inTest := make(map[int]bool, len(f.Test))
			for _, i := range f.Test {
				inTest[i] = true
			}
			for _, i := range f.Train {
				if inTest[i] {
					t.Errorf("index %d in both train and test", i)
				}
			}
		}
		// Every index is tested exactly once across folds.
		for i := 0; i < tt.n; i++ {
			if seen[i] != 1 {
				t.Errorf("index %d tested %d times, want 1", i, seen[i])
			}
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	if _, err := KFold(10, 1, 0); err == nil {
		t.Error("k < 2 should error")
	}
	if _, err := KFold(3, 5, 0); err == nil {
		t.Error("n < k should error")
	}
}

func TestKFoldDeterminism(t *testing.T) {
	a, err := KFold(50, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KFold(50, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	for f := range a {
		if len(a[f].Test) != len(b[f].Test) {
			t.Fatal("fold sizes differ across identical seeds")
		}
		for i := range a[f].Test {
			if a[f].Test[i] != b[f].Test[i] {
				t.Fatal("fold contents differ across identical seeds")
			}
		}
	}
}
