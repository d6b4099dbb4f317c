// Command reachfix is the fixture TestReachableFixture analyses: main reaches
// lib.Code and lib.Wrap, and nothing reaches lib.Dead.
package main

import (
	"errors"
	"fmt"

	"reachfix/lib"
)

func main() {
	fmt.Println(lib.Code(1))
	err := lib.Wrap(errors.New("cause"))
	fmt.Println(errors.Is(err, err))
}
