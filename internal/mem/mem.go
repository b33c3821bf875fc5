// Package mem implements the simulated word-addressed memory that the
// StackThreads/MP reproduction runs against.
//
// The real StackThreads/MP manipulates native stack frames; Go's runtime
// owns goroutine stacks and moves them, so frame words cannot be patched in
// place. This package substitutes a stable address space of 64-bit words,
// demand-paged as the OS backs a native stack: a page materializes on its
// first store, and a load from an absent page reads zero. Stacks are
// contiguous regions growing toward lower addresses, and a shared heap
// serves allocations. All frame-link surgery performed by the runtime
// (reading and patching return-address and saved-FP slots) happens on
// these words.
package mem

import (
	"fmt"
	"math"
)

// Addr is a simulated memory address, measured in 64-bit words.
type Addr = int64

// Trap describes a memory access fault by a simulated program. The machine
// converts it into a run error; it is not used for host-program bugs.
type Trap struct {
	Kind string // "load", "store", "bounds"
	Addr Addr
}

func (t *Trap) Error() string {
	return fmt.Sprintf("memory trap: %s at address %d", t.Kind, t.Addr)
}

// Page geometry: address a lives in page a>>PageShift at word a&PageMask.
const (
	PageShift = 9
	PageWords = 1 << PageShift
	PageMask  = PageWords - 1
)

// Page is one materialized page of simulated memory.
type Page [PageWords]int64

// Memory is the simulated address space shared by all workers.
//
// Layout (low addresses first):
//
//	[0, reserved)                 — unmapped guard region (address 0 stays
//	                                invalid so null pointers trap)
//	[reserved, reserved+heap)     — shared heap (bump allocated, lock is the
//	                                scheduler's concern)
//	worker stacks                 — one region per worker, each growing
//	                                toward lower addresses
//	worker-local storage          — a few words per worker (maxE cell, ids)
//
// The extent alone bounds every access, so traps never depend on which
// pages are present; words past it are never written and stay zero.
type Memory struct {
	pages    []*Page // page number -> page; nil = absent (reads as zeros)
	size     Addr    // mapped extent in words, including the guard
	heapLo   Addr
	heapNext Addr
	heapHi   Addr
}

// Guard is the number of unmapped low words; address 0 always traps.
const Guard Addr = 16

// New creates a memory with the given heap capacity in words.
func New(heapWords int) *Memory {
	if heapWords < 0 {
		panic("mem: negative heap size")
	}
	m := &Memory{heapLo: Guard, heapNext: Guard, heapHi: Guard + Addr(heapWords)}
	m.extend(m.heapHi)
	return m
}

// PageCount returns the number of pages needed to cover n words.
func PageCount(n Addr) int { return int((n + PageWords - 1) >> PageShift) }

// extend grows the mapped extent by n words. The new pages start absent.
func (m *Memory) extend(n Addr) {
	m.size += n
	np := PageCount(m.size)
	if np > cap(m.pages) {
		// Double: append grows large slices by only 1.25x per copy.
		m.pages = append(make([]*Page, 0, 2*np), m.pages...)
	}
	m.pages = m.pages[:np]
}

// Size returns the total number of mapped words (including the guard).
func (m *Memory) Size() Addr { return m.size }

// Pages exposes the page table for the interpreter, which bounds-checks
// against Size itself and calls Materialize for an absent page it stores
// to. The slice header is invalidated by the next MapStack/MapWords, so
// callers re-fetch it at every batch boundary.
func (m *Memory) Pages() []*Page { return m.pages }

// Materialize returns page p, allocating it zeroed if it is absent.
func (m *Memory) Materialize(p int64) *Page {
	pg := m.pages[p]
	if pg == nil {
		pg = new(Page)
		m.pages[p] = pg
	}
	return pg
}

// HeapLo returns the first heap address.
func (m *Memory) HeapLo() Addr { return m.heapLo }

// HeapUsed returns the number of heap words currently allocated.
func (m *Memory) HeapUsed() Addr { return m.heapNext - m.heapLo }

// Load reads one word. It panics with *Trap on an unmapped address; the
// machine recovers the trap at its run boundary.
func (m *Memory) Load(a Addr) int64 {
	if a < Guard || a >= m.size {
		panic(&Trap{Kind: "load", Addr: a})
	}
	if pg := m.pages[a>>PageShift]; pg != nil {
		return pg[a&PageMask]
	}
	return 0
}

// Store writes one word, trapping like Load on an unmapped address.
func (m *Memory) Store(a Addr, v int64) {
	if a < Guard || a >= m.size {
		panic(&Trap{Kind: "store", Addr: a})
	}
	m.Materialize(a >> PageShift)[a&PageMask] = v
}

// LoadF and StoreF move float64 values through raw word bits.
func (m *Memory) LoadF(a Addr) float64 { return math.Float64frombits(uint64(m.Load(a))) }

// StoreF stores a float64 as raw bits at a.
func (m *Memory) StoreF(a Addr, v float64) { m.Store(a, int64(math.Float64bits(v))) }

// Alloc bump-allocates n words from the shared heap and returns the base
// address. Callers serialize access (the discrete-event scheduler runs one
// instruction at a time, so simulated allocation is already atomic; host-side
// setup runs before any worker starts).
func (m *Memory) Alloc(n Addr) (Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("mem: Alloc(%d): negative size", n)
	}
	if m.heapNext+n > m.heapHi {
		return 0, fmt.Errorf("mem: heap exhausted: want %d words, %d free", n, m.heapHi-m.heapNext)
	}
	a := m.heapNext
	m.heapNext += n
	return a, nil
}

// MapStack appends a new stack region of n words and returns it. Regions are
// mapped after the current end of memory, so each worker's stack occupies a
// disjoint address range — the property the epilogue locality test relies on.
func (m *Memory) MapStack(n Addr) Region {
	if n <= 0 {
		panic("mem: MapStack: non-positive size")
	}
	lo := m.size
	m.extend(n)
	return Region{Lo: lo, Hi: lo + n}
}

// MapWords appends a raw region of n words (used for worker-local storage).
func (m *Memory) MapWords(n Addr) Region { return m.MapStack(n) }

// Region is a half-open address interval [Lo, Hi).
type Region struct {
	Lo, Hi Addr
}

// Contains reports whether a lies inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Lo && a < r.Hi }

// Len returns the region length in words.
func (r Region) Len() Addr { return r.Hi - r.Lo }

// WriteWords copies host values into simulated memory starting at base.
func (m *Memory) WriteWords(base Addr, vs []int64) {
	for i, v := range vs {
		m.Store(base+Addr(i), v)
	}
}

// ReadWords copies n simulated words starting at base into a host slice.
func (m *Memory) ReadWords(base Addr, n Addr) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = m.Load(base + Addr(i))
	}
	return out
}

// WriteFloats copies host float64s into simulated memory starting at base.
func (m *Memory) WriteFloats(base Addr, vs []float64) {
	for i, v := range vs {
		m.StoreF(base+Addr(i), v)
	}
}

// ReadFloats copies n simulated float words starting at base into a host slice.
func (m *Memory) ReadFloats(base Addr, n Addr) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.LoadF(base + Addr(i))
	}
	return out
}
