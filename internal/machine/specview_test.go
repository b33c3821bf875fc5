package machine

import (
	"testing"

	"repro/internal/mem"
)

// testMem returns a memory of exactly size mapped words.
func testMem(size int64) *mem.Memory { return mem.New(int(size - mem.Guard)) }

func testView(m *mem.Memory) *pageView {
	return &pageView{
		size:  m.Size(),
		src:   m.Pages(),
		pages: make([]*mem.Page, mem.PageCount(m.Size())),
	}
}

// viewLoad and viewStore access memory through v as a speculating worker.
func viewLoad(v *pageView, a int64) int64 {
	return (&Worker{spec: &specState{view: v}}).memLoad(a)
}

func viewStore(v *pageView, a, val int64) {
	(&Worker{spec: &specState{view: v}}).memStore(a, val)
}

// TestPageViewPrivatizeOnTouch checks the copy-on-first-touch discipline:
// loads see the shared value, stores stay private, and a page is copied at
// most once.
func TestPageViewPrivatizeOnTouch(t *testing.T) {
	m := testMem(3 * mem.PageWords)
	a := int64(mem.Guard + 10)
	b := a + mem.PageWords // next page
	m.Store(a, 111)
	m.Store(b, 222)
	m.Store(b+1, 223)
	v := testView(m)

	if got := viewLoad(v, a); got != 111 {
		t.Fatalf("load(%d) = %d, want 111", a, got)
	}
	if len(v.touched) != 1 || v.touched[0] != a>>mem.PageShift {
		t.Fatalf("touched = %v after one load", v.touched)
	}
	viewStore(v, a, 999)
	if got := m.Load(a); got != 111 {
		t.Fatalf("store leaked to shared memory: word %d = %d", a, got)
	}
	if got := viewLoad(v, a); got != 999 {
		t.Fatalf("load after store = %d, want 999", got)
	}
	if len(v.touched) != 1 {
		t.Fatalf("same-page store privatized again: touched = %v", v.touched)
	}
	viewStore(v, b, 333)
	if len(v.touched) != 2 || v.touched[1] != b>>mem.PageShift {
		t.Fatalf("touched = %v after cross-page store", v.touched)
	}
	// The rest of a privatized page carries the shared content.
	if got := viewLoad(v, b+1); got != 223 {
		t.Fatalf("neighbor word = %d, want 223", got)
	}
	// A page absent from shared memory privatizes as zeros and stays
	// absent there.
	c := 2*mem.PageWords + int64(5)
	if got := viewLoad(v, c); got != 0 {
		t.Fatalf("load from absent page = %d, want 0", got)
	}
	viewStore(v, c, 4)
	if m.Pages()[c>>mem.PageShift] != nil {
		t.Fatal("view store materialized the shared page")
	}
}

// TestPageViewPartialLastPage checks privatizing the final, partial page
// copies the words that exist and bounds-checks the rest.
func TestPageViewPartialLastPage(t *testing.T) {
	size := int64(2*mem.PageWords + 17)
	m := testMem(size)
	last := size - 1
	m.Store(last, 7)
	v := testView(m)
	if got := viewLoad(v, last); got != 7 {
		t.Fatalf("load(last) = %d, want 7", got)
	}
	viewStore(v, last, 8)
	if got := viewLoad(v, last); got != 8 {
		t.Fatalf("load after store = %d, want 8", got)
	}
	func() {
		defer func() {
			if _, ok := recover().(*mem.Trap); !ok {
				t.Fatal("store past the extent on a privatized page did not trap")
			}
		}()
		viewStore(v, size, 1)
	}()
}

// TestPageViewTraps checks out-of-view accesses raise the same *mem.Trap
// the oracle's bounds check would.
func TestPageViewTraps(t *testing.T) {
	m := testMem(mem.PageWords)
	v := testView(m)
	for _, tc := range []struct {
		kind string
		addr int64
		op   func(a int64)
	}{
		{"load", m.Size(), func(a int64) { viewLoad(v, a) }},
		{"load", mem.Guard - 1, func(a int64) { viewLoad(v, a) }},
		{"store", m.Size() + 5, func(a int64) { viewStore(v, a, 1) }},
	} {
		func() {
			defer func() {
				r := recover()
				trap, ok := r.(*mem.Trap)
				if !ok {
					t.Fatalf("%s(%d): recovered %v, want *mem.Trap", tc.kind, tc.addr, r)
				}
				if trap.Kind != tc.kind || trap.Addr != tc.addr {
					t.Fatalf("%s(%d): trap %+v", tc.kind, tc.addr, trap)
				}
			}()
			tc.op(tc.addr)
		}()
	}
}

// TestSpecStateViewRouting checks the worker-level memLoad/memStore route
// through the view when one is installed: stores append to the write log in
// program order and loads observe them.
func TestSpecStateViewRouting(t *testing.T) {
	m := testMem(2 * mem.PageWords)
	a := int64(mem.Guard + 4)
	m.Store(a, 5)
	v := testView(m)
	w := &Worker{spec: &specState{view: v}}

	if got := w.memLoad(a); got != 5 {
		t.Fatalf("memLoad = %d, want 5", got)
	}
	w.memStore(a, 6)
	w.memStore(a+1, 7)
	if got := w.memLoad(a); got != 6 {
		t.Fatalf("memLoad after memStore = %d, want 6", got)
	}
	wl := w.spec.wlog
	if len(wl) != 2 || wl[0] != (memWrite{a, 6}) || wl[1] != (memWrite{a + 1, 7}) {
		t.Fatalf("wlog = %+v", wl)
	}
	if m.Load(a) != 5 {
		t.Fatalf("store leaked to shared memory")
	}
}

// TestRecycledViewStartsClean checks that Finish empties a chain's view
// before pooling it, and that a chain reusing it sees nothing of the chain
// that returned it: recycled private pages are refilled from shared memory
// (or zeroed) rather than showing the earlier chain's private stores.
func TestRecycledViewStartsClean(t *testing.T) {
	mach, w := startWorker(t, mixProgram(t), Options{})
	m := mach.Mem
	a := m.HeapLo() + 3
	b := a + mem.PageWords
	m.Store(b, 50)

	c := w.BeginChain()
	c.attach(&pageView{})
	v := c.view
	viewStore(v, a, 42) // page absent in shared memory
	viewStore(v, b, 43) // page present in shared memory
	c.Finish()
	if got := c.TouchedPages(); len(got) != 2 {
		t.Fatalf("TouchedPages after Finish = %v, want the two stored pages", got)
	}
	for p, pg := range v.pages {
		if pg != nil {
			t.Fatalf("finished view still maps page %d", p)
		}
	}
	if len(v.free) != 2 || len(v.touched) != 0 {
		t.Fatalf("finished view: %d free pages, %d touched; want 2, 0", len(v.free), len(v.touched))
	}

	c = w.BeginChain()
	c.attach(v)
	if got := viewLoad(v, a); got != 0 {
		t.Fatalf("recycled view leaked an earlier private store: word %d = %d", a, got)
	}
	if got := viewLoad(v, b); got != 50 {
		t.Fatalf("recycled view read %d at %d, want the shared 50", got, b)
	}
	if got := viewLoad(v, a+1); got != 0 {
		t.Fatalf("recycled page not zero-filled: word %d = %d", a+1, got)
	}
	if len(v.free) != 0 {
		t.Fatalf("privatizing two pages left %d of the recycled pages unused", len(v.free))
	}
	c.Finish()
	if m.Load(a) != 0 || m.Load(b) != 50 {
		t.Fatal("chain stores leaked to shared memory")
	}
}

// TestSpecStatePrevThunks checks a chain's later segments see thunks
// consumed by earlier segments as gone.
func TestSpecStatePrevThunks(t *testing.T) {
	s := &specState{prevThunks: []int64{-10}, thunks: []int64{-20}}
	if !s.consumed(-10) || !s.consumed(-20) {
		t.Fatal("consumed thunks not visible")
	}
	if s.consumed(-30) {
		t.Fatal("unconsumed thunk reported consumed")
	}
}
