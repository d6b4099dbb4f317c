// Package lib holds the fixture's declarations.
package lib

// Code is reached; fmt calls its String method through fmt.Stringer.
type Code int

func (c Code) String() string { return "code" }

// Err is reached through Wrap; errors calls Unwrap through an unnamed
// interface.
type Err struct{ err error }

func (e *Err) Error() string { return "wrapped: " + e.err.Error() }

func (e *Err) Unwrap() error { return e.err }

// Wrap is reached from main.
func Wrap(err error) error { return &Err{err} }

// Dead has no caller.
func Dead() int { return helper() + 1 }

// helper is called only by Dead.
func helper() int { return 41 }

// Kept has no caller but is allowlisted.
func Kept() int { return keptHelper() }

// keptHelper is reached through the allowlisted Kept.
func keptHelper() int { return 7 }
