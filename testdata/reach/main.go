// Command reachfix is the fixture TestReachableFixture analyses: main reaches
// lib.Code, lib.Wrap, lib.Use and lib.Params, and nothing reaches lib.Dead.
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
	fmt.Println(lib.Use([]int{1, 2}))
	fmt.Println(lib.Params())
}
