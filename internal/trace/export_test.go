package trace

// For the test that needs internal/sim, which imports this package.
var (
	ParseFloatKernel  = parseFloat
	AppendFloatKernel = appendFloat
)

func (r *Record) Floats() [9]*float64 { return r.floats() }
