package lib

// Params calls a function for each case of the parameter rule.
func Params() int {
	var p *int
	s := Scaler(Shape{})
	f := Valued
	return Fixed(3) + Fixed(3) + Nilled(nil) + Nilled(nil) + TestVaried(1) + TestVaried(1) +
		Allowed(4) + Allowed(4) + Varied(1) + Varied(2) + Nilled2(p) + Nilled2(nil) + Once(5) +
		Valued(6) + Valued(6) + f(6) + Shape{}.Scale(2) + Shape{}.Scale(2) + s.Scale(2) +
		Sum(1) + Sum(1)
}

// Fixed gets 3 from both calls: flagged.
func Fixed(n int) int { return n }

// Nilled gets nil from both calls: flagged.
func Nilled(p *int) int {
	if p == nil {
		return 0
	}
	return *p
}

// TestVaried gets 1 from both program calls and 2 from a test: flagged.
func TestVaried(n int) int { return n }

// Allowed gets 4 from both calls, allowlisted.
func Allowed(n int) int { return n }

// Varied gets two constants.
func Varied(n int) int { return n }

// Nilled2 gets a variable and nil.
func Nilled2(p *int) int {
	if p == nil {
		return 1
	}
	return 2
}

// Once has a single call.
func Once(n int) int { return n }

// Valued is also used as a value.
func Valued(n int) int { return n }

// Scaler is the interface Shape.Scale can be reached through.
type Scaler interface{ Scale(k int) int }

// Shape's Scale gets 2 from both direct calls, but it may be called through
// Scaler.
type Shape struct{}

func (Shape) Scale(k int) int { return k }

// Sum's variadic parameter gets 1 from both calls.
func Sum(xs ...int) int { return len(xs) }
