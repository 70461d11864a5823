// Package tworoots is zeroalloc-analyzer testdata for root attribution:
// two annotated roots reach the same allocating helpers, so each
// diagnostic's "(on the zeroalloc path of X)" suffix must pick a root. It
// names the first-declared root that reaches the helper, on every run:
// for describe, which both roots call directly, and for deep, which the
// second root calls directly and the first only through relay. Two clean
// roots declared between them reach neither helper and stay silent.
package tworoots

import "fmt"

var sink string

// first calls describe directly and deep through relay.
//
//hydralint:zeroalloc
func first(n int) {
	describe(n)
	relay(n)
}

// clean and alsoClean allocate nothing.
//
//hydralint:zeroalloc
func clean(n int) int { return n + 1 }

//hydralint:zeroalloc
func alsoClean(n int) int { return n - 1 }

// second calls both helpers directly.
//
//hydralint:zeroalloc
func second(n int) {
	describe(n)
	deep(n)
}

func relay(n int) {
	deep(n + 1)
}

func describe(n int) {
	sink = fmt.Sprint(n) // want "fmt.Sprint allocates in zeroalloc function describe \(on the zeroalloc path of first\)"
}

func deep(n int) {
	sink = fmt.Sprint(n) // want "fmt.Sprint allocates in zeroalloc function deep \(on the zeroalloc path of first\)"
}
