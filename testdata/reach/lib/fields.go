package lib

import "sync"

// Fields has a field for each form of write, and three no program writes:
// one only withDefaults writes, one only a test writes, one only read.
type Fields struct {
	Keyed         int
	Assigned      int
	OpAssigned    int
	Incremented   int
	Decremented   int
	Addressed     int
	ElemAddressed [2]int
	Locked        sync.Mutex
	Elem          [2]int
	Ranged        int
	Tagged        int `json:"tagged"`
	Defaulted     int
	TestOnly      int
	Read          int
}

// Pair is written by a positional literal.
type Pair struct{ A, B int }

// Use writes Fields in each form and reads the rest.
func Use(xs []int) int {
	f := &Fields{Keyed: 1}
	f.Assigned = 2
	f.OpAssigned += 3
	f.Incremented++
	f.Decremented--
	p, q := &f.Addressed, &f.ElemAddressed[1]
	f.Locked.Lock()
	defer f.Locked.Unlock()
	f.Elem[0] = 4
	for f.Ranged = range xs {
	}
	f.withDefaults()
	pair := Pair{5, 6}
	return *p + *q + f.Tagged + f.Defaulted + f.TestOnly + f.Read + pair.A + pair.B
}

func (f *Fields) withDefaults() {
	if f.Defaulted == 0 {
		f.Defaulted = 7
	}
}
