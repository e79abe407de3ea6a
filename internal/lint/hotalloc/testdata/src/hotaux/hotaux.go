// Package hotaux is the cross-package fixture for the hotalloc analyzer:
// its helpers are hot through roots declared in package hotalloc.
package hotaux

import "fmt"

// Label is reached only from a root in package hotalloc.
func Label(v int) string {
	return fmt.Sprint(v) // want "fmt.Sprint boxes its arguments and allocates on hot path \\(reachable from //sdem:hotpath root CrossHot\\)"
}

// Shared is called directly by roots in both packages. Its finding names
// the root that comes first in package-path, then position, order:
// hotalloc.CrossHot, although this package is loaded first.
func Shared(v int) {
	fmt.Println(v) // want "fmt.Println boxes its arguments and allocates on hot path \\(reachable from //sdem:hotpath root CrossHot\\)"
}

// AuxHot is this package's own root.
//
//sdem:hotpath
func AuxHot(v int) {
	Shared(v)
}
