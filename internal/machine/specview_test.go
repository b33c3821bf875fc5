package machine

import (
	"testing"

	"repro/internal/mem"
)

func testView(words []int64) *pageView {
	size := int64(len(words))
	return &pageView{
		size:  size,
		src:   words,
		pages: make([]*viewPage, (size+ChainPageWords-1)>>ChainPageShift),
	}
}

// TestPageViewPrivatizeOnTouch checks the copy-on-first-touch discipline:
// loads see the shared value, stores stay private, and a page is copied at
// most once.
func TestPageViewPrivatizeOnTouch(t *testing.T) {
	words := make([]int64, 3*ChainPageWords)
	a := int64(mem.Guard + 10)
	b := a + ChainPageWords // next page
	words[a] = 111
	words[b] = 222
	v := testView(words)

	if got := v.load(a); got != 111 {
		t.Fatalf("load(%d) = %d, want 111", a, got)
	}
	if len(v.touched) != 1 || v.touched[0] != a>>ChainPageShift {
		t.Fatalf("touched = %v after one load", v.touched)
	}
	v.store(a, 999)
	if words[a] != 111 {
		t.Fatalf("store leaked to shared memory: words[%d] = %d", a, words[a])
	}
	if got := v.load(a); got != 999 {
		t.Fatalf("load after store = %d, want 999", got)
	}
	if len(v.touched) != 1 {
		t.Fatalf("same-page store privatized again: touched = %v", v.touched)
	}
	v.store(b, 333)
	if len(v.touched) != 2 || v.touched[1] != b>>ChainPageShift {
		t.Fatalf("touched = %v after cross-page store", v.touched)
	}
	// The rest of a privatized page carries the shared content.
	if got := v.load(b + 1); got != words[b+1] {
		t.Fatalf("neighbor word = %d, want %d", got, words[b+1])
	}
}

// TestPageViewPartialLastPage checks privatizing the final, partial page
// copies only the words that exist and bounds-checks the rest.
func TestPageViewPartialLastPage(t *testing.T) {
	size := int64(2*ChainPageWords + 17)
	words := make([]int64, size)
	last := size - 1
	words[last] = 7
	v := testView(words)
	if got := v.load(last); got != 7 {
		t.Fatalf("load(last) = %d, want 7", got)
	}
	v.store(last, 8)
	if got := v.load(last); got != 8 {
		t.Fatalf("load after store = %d, want 8", got)
	}
}

// TestPageViewTraps checks out-of-view accesses raise the same *mem.Trap
// the oracle's bounds check would.
func TestPageViewTraps(t *testing.T) {
	words := make([]int64, ChainPageWords)
	v := testView(words)
	for _, tc := range []struct {
		kind string
		addr int64
		op   func(a int64)
	}{
		{"load", int64(len(words)), func(a int64) { v.load(a) }},
		{"load", mem.Guard - 1, func(a int64) { v.load(a) }},
		{"store", int64(len(words)) + 5, func(a int64) { v.store(a, 1) }},
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
	words := make([]int64, 2*ChainPageWords)
	a := int64(mem.Guard + 4)
	words[a] = 5
	v := testView(words)
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
	if words[a] != 5 {
		t.Fatalf("store leaked to shared memory")
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
