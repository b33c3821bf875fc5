package mem

import (
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1024)
	m.Store(Guard, 42)
	if got := m.Load(Guard); got != 42 {
		t.Fatalf("Load = %d", got)
	}
	m.StoreF(Guard+1, 3.25)
	if got := m.LoadF(Guard + 1); got != 3.25 {
		t.Fatalf("LoadF = %g", got)
	}
}

func TestGuardTraps(t *testing.T) {
	m := New(64)
	for _, a := range []Addr{0, 1, Guard - 1, m.Size(), m.Size() + 100, -1} {
		func() {
			defer func() {
				if _, ok := recover().(*Trap); !ok {
					t.Errorf("access at %d did not trap", a)
				}
			}()
			m.Load(a)
		}()
	}
}

func TestTrapError(t *testing.T) {
	tr := &Trap{Kind: "store", Addr: 7}
	if tr.Error() == "" {
		t.Fatal("empty trap message")
	}
}

func TestAlloc(t *testing.T) {
	m := New(100)
	a, err := m.Alloc(40)
	if err != nil || a != Guard {
		t.Fatalf("first alloc = %d, %v", a, err)
	}
	b, err := m.Alloc(60)
	if err != nil || b != Guard+40 {
		t.Fatalf("second alloc = %d, %v", b, err)
	}
	if _, err := m.Alloc(1); err == nil {
		t.Fatal("overcommitted heap did not error")
	}
	if _, err := m.Alloc(-1); err == nil {
		t.Fatal("negative alloc did not error")
	}
	if m.HeapUsed() != 100 {
		t.Fatalf("HeapUsed = %d", m.HeapUsed())
	}
}

func TestMapStackDisjoint(t *testing.T) {
	m := New(16)
	r1 := m.MapStack(100)
	r2 := m.MapStack(50)
	if r1.Hi != r2.Lo {
		t.Fatalf("stacks not adjacent: %v %v", r1, r2)
	}
	if r1.Contains(r2.Lo) || r2.Contains(r1.Hi-1) {
		t.Fatal("regions overlap")
	}
	if r1.Len() != 100 || r2.Len() != 50 {
		t.Fatal("wrong region lengths")
	}
	m.Store(r1.Hi-1, 7)
	m.Store(r2.Lo, 9)
	if m.Load(r1.Hi-1) != 7 || m.Load(r2.Lo) != 9 {
		t.Fatal("stack words not independent")
	}
}

func TestBulkReadWrite(t *testing.T) {
	m := New(256)
	base, _ := m.Alloc(8)
	in := []int64{1, -2, 3, -4}
	m.WriteWords(base, in)
	out := m.ReadWords(base, 4)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("word %d = %d", i, out[i])
		}
	}
	fs := []float64{0.5, -1.25, 1e300}
	m.WriteFloats(base+4, fs)
	got := m.ReadFloats(base+4, 3)
	for i := range fs {
		if got[i] != fs[i] {
			t.Fatalf("float %d = %g", i, got[i])
		}
	}
}

// TestFloatBitsProperty: float round-trips are exact for all finite values.
func TestFloatBitsProperty(t *testing.T) {
	m := New(64)
	f := func(v float64) bool {
		m.StoreF(Guard, v)
		got := m.LoadF(Guard)
		return got == v || (got != got && v != v) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// present counts the materialized pages.
func present(m *Memory) int {
	n := 0
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestAbsentPageReadsZero: a load from a never-stored page reads 0 and
// neither allocates nor materializes anything.
func TestAbsentPageReadsZero(t *testing.T) {
	m := New(4 * PageWords)
	a := Guard + PageWords + 7
	if allocs := testing.AllocsPerRun(100, func() {
		if m.Load(a) != 0 {
			t.Fatal("absent page read nonzero")
		}
	}); allocs != 0 {
		t.Fatalf("load from an absent page allocated %v times", allocs)
	}
	if n := present(m); n != 0 {
		t.Fatalf("%d pages present after loads only", n)
	}
}

// TestStoreMaterializesOnePage: one store materializes exactly its page;
// further stores to the same page add nothing.
func TestStoreMaterializesOnePage(t *testing.T) {
	m := New(4 * PageWords)
	a := Addr(2*PageWords + 5)
	m.Store(a, 9)
	if n := present(m); n != 1 || m.pages[a>>PageShift] == nil {
		t.Fatalf("after one store: %d pages present, page %d present=%v", n, a>>PageShift, m.pages[a>>PageShift] != nil)
	}
	m.Store(a+1, 10)
	m.Store(a&^PageMask, 11)
	if n := present(m); n != 1 {
		t.Fatalf("same-page stores materialized %d pages", n)
	}
	if m.Load(a) != 9 || m.Load(a+1) != 10 || m.Load(a-1) != 0 {
		t.Fatal("materialized page lost or invented words")
	}
}

// TestTrapsIndependentOfMaterialization: the guard, the extent and the
// words past it on the last, partial page trap the same whether or not
// the surrounding pages are present.
func TestTrapsIndependentOfMaterialization(t *testing.T) {
	m := New(PageWords + 100) // the extent ends inside page 1
	size := m.Size()
	if size&PageMask == 0 {
		t.Fatal("test needs a partial last page")
	}
	traps := func(op func()) (trapped bool) {
		defer func() { _, trapped = recover().(*Trap) }()
		op()
		return false
	}
	bad := []Addr{0, Guard - 1, size, size + 1, (size | PageMask), size + PageWords, -1}
	for round, fill := range []bool{false, true} {
		if fill {
			m.Store(Guard, 1)  // page 0
			m.Store(size-1, 2) // the last, partial page
		}
		for _, a := range bad {
			if !traps(func() { m.Load(a) }) || !traps(func() { m.Store(a, 1) }) {
				t.Fatalf("round %d: access at %d did not trap", round, a)
			}
		}
		if traps(func() { m.Load(size - 1) }) || traps(func() { m.Store(Guard, 1) }) {
			t.Fatalf("round %d: in-extent access trapped", round)
		}
	}
}

// TestMapStackMaterializesNothing: mapping only extends the extent.
func TestMapStackMaterializesNothing(t *testing.T) {
	m := New(16)
	r := m.MapStack(1 << 20)
	m.MapWords(8)
	if n := present(m); n != 0 {
		t.Fatalf("mapping materialized %d pages", n)
	}
	if m.Load(r.Hi-1) != 0 {
		t.Fatal("fresh stack word nonzero")
	}
}

// TestStateRoundTrip: Export -> Import -> Export is identical, all-zero
// pages stay absent on import, and a page zeroed by stores exports the
// same as one never touched.
func TestStateRoundTrip(t *testing.T) {
	m := New(3 * PageWords)
	m.MapStack(2 * PageWords)
	a, _ := m.Alloc(10)
	m.Store(a, 5)
	m.Store(2*PageWords+1, -3)
	m.Store(PageWords+4, 7)
	m.Store(PageWords+4, 0) // materialized but all zero
	st := m.ExportState()
	if Addr(len(st.Words)) != m.Size() {
		t.Fatalf("export has %d words, extent %d", len(st.Words), m.Size())
	}

	r := New(3 * PageWords)
	r.MapStack(2 * PageWords)
	if err := r.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if n := present(r); n != 2 {
		t.Fatalf("import materialized %d pages, want the 2 nonzero ones", n)
	}
	st2 := r.ExportState()
	if st2.HeapNext != st.HeapNext || len(st2.Words) != len(st.Words) {
		t.Fatal("round trip changed the image shape")
	}
	for i := range st.Words {
		if st.Words[i] != st2.Words[i] {
			t.Fatalf("word %d: %d after round trip, want %d", i, st2.Words[i], st.Words[i])
		}
	}
	if err := New(PageWords).ImportState(&State{Words: make([]int64, 4), HeapNext: Guard}); err == nil {
		t.Fatal("short image imported")
	}
}
