// Package hotalloc is the fixture for the hotalloc analyzer.
package hotalloc

import (
	"container/heap"
	"fmt"
	"hotaux"
	"sort"
)

// Hot is a hot-path root: every allocation construct below is flagged.
//
//sdem:hotpath
func Hot(xs []int) (int, error) {
	total := 0

	m := make(map[int]int)                     // want "make\\(map\\) allocates per call on //sdem:hotpath function"
	weights := map[string]float64{"a": 1}      // want "map literal allocates per call"
	ch := make(chan int, 1)                    // want "make\\(chan\\) allocates per call"
	label := fmt.Sprintf("n=%d", len(xs))      // want "fmt.Sprintf boxes its arguments and allocates"
	add := func(v int) { total += v }          // want "closure captures \"total\" and allocates per call"
	double := func(v int) int { return 2 * v } // non-capturing: static, clean

	var grown []int
	for _, x := range xs {
		grown = append(grown, x) // want "append grows \"grown\" inside a loop without preallocation"
	}
	sized := make([]int, 0, len(xs))
	for _, x := range xs {
		sized = append(sized, x) // preallocated above: clean
	}

	for _, x := range xs {
		m[x] = double(x)
		add(x)
	}
	ch <- total
	_ = label
	_ = weights
	if total < 0 {
		return 0, fmt.Errorf("negative total %d", total) // Errorf is the cold error path: clean
	}
	allowed := make(map[int]int) //lint:allow hotalloc: fixture checks suppression
	_ = allowed
	return total + len(grown) + len(sized) + <-ch, nil
}

// warm is not annotated but is called from Trampoline, so it is
// transitively hot and findings name the root that reaches it.
func warm(v int) {
	fmt.Println(v) // want "fmt.Println boxes its arguments and allocates on hot path \\(reachable from //sdem:hotpath root Trampoline\\)"
}

// Cold is unreachable from any hot root: identical constructs stay clean.
func Cold(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	fmt.Println(len(out))
	_ = map[int]int{1: 2}
	return out
}

// Trampoline keeps warm hot without annotating warm itself.
//
//sdem:hotpath
func Trampoline(v int) {
	warm(v)
}

// AdmitHot mirrors the admission gate's fast path: channel operations
// on a pre-made slots channel and arithmetic on the EWMA allocate
// nothing, so the whole function stays clean.
//
//sdem:hotpath
func AdmitHot(slots chan struct{}, ewma *int64, budgetNs int64) bool {
	if *ewma > budgetNs {
		return false
	}
	select {
	case slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// CacheInsertHot mirrors a naive cache-shard insert: a fresh ready
// channel per call and unbounded growth of the eviction queue are
// exactly the allocations to keep off a per-request fast path.
//
//sdem:hotpath
func CacheInsertHot(entries map[string]chan struct{}, keys []string) []string {
	var order []string
	for _, k := range keys {
		entries[k] = make(chan struct{}) // want "make\\(chan\\) allocates per call"
		order = append(order, k)         // want "append grows \"order\" inside a loop without preallocation"
	}
	return order
}

// HeapHot mirrors the arrival-reorder path before it moved to a typed
// heap: every container/heap operation drives elements through `any`,
// one box per Push and another per Pop — two allocations per element on
// the engine's hottest loop.
//
//sdem:hotpath
func HeapHot(h heap.Interface, v int) int {
	heap.Push(h, v)          // want "container/heap.Push boxes every element through any"
	heap.Fix(h, 0)           // want "container/heap.Fix boxes every element through any"
	return heap.Pop(h).(int) // want "container/heap.Pop boxes every element through any"
}

// LabelsHot mirrors the telemetry label-map miss path before interning:
// a fresh label map (or a formatted label string) per observation is an
// allocation on every request, exactly what per-route interned label
// sets remove. The interned call is the fixed shape and stays clean.
//
//sdem:hotpath
func LabelsHot(observe func(map[string]string), route, code string, interned map[string]string) {
	observe(map[string]string{"route": route}) // want "map literal allocates per call"
	observe(map[string]string{"code": code})   // want "map literal allocates per call"
	observe(interned)                          // interned at construction: clean
}

// byLen sorts strings by length through a pointer receiver.
type byLen []string

func (b *byLen) Len() int           { return len(*b) }
func (b *byLen) Less(i, j int) bool { return len((*b)[i]) < len((*b)[j]) }
func (b *byLen) Swap(i, j int)      { (*b)[i], (*b)[j] = (*b)[j], (*b)[i] }

// sorter retains its sort adapter across calls.
type sorter struct {
	keys byLen
}

// SortHot mirrors the sort adapters that looked allocation-free: the
// pointer fits in sort.Interface, but the compiler moves the local it
// points to onto the heap, one object per call. The adapter retained in
// a struct field stays clean.
//
//sdem:hotpath
func SortHot(keys []string, s *sorter) {
	local := byLen(keys)
	sort.Stable(&local)        // want "&local passed as an interface argument to Stable moves local to the heap"
	sort.Sort((*byLen)(&keys)) // want "&keys passed as an interface argument to Sort moves keys to the heap"
	sort.Stable(&s.keys)       // retained field: clean
}

// CrossHot makes helpers in package hotaux hot.
//
//sdem:hotpath
func CrossHot(v int) string {
	hotaux.Shared(v)
	return hotaux.Label(v)
}
