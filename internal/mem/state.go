package mem

import "fmt"

// State is a complete, restorable image of a Memory: every mapped word plus
// the heap bump pointer. The guard size, heap bounds and region layout are
// not stored — they are pure functions of how the memory was constructed
// (heap capacity, then MapStack/MapWords calls in order), so a resumed run
// rebuilds them by reconstructing the machine the same way and then
// installing this image on top.
type State struct {
	Words    []int64
	HeapNext Addr
}

// ExportState flattens the memory image; absent pages export as zeros, so
// the image is the same whichever pages happen to be materialized.
func (m *Memory) ExportState() *State {
	words := make([]int64, m.size)
	for p, pg := range m.pages {
		if pg != nil {
			copy(words[Addr(p)<<PageShift:], pg[:])
		}
	}
	return &State{Words: words, HeapNext: m.heapNext}
}

// ImportState replaces the memory image with a previously exported one. The
// image may be longer than the current mapping (the checkpointed run mapped
// extra stack segments after construction); it can never be shorter, because
// the importer reconstructs the machine with the same worker count and stack
// sizes before installing the image. All-zero pages stay absent.
func (m *Memory) ImportState(st *State) error {
	n := Addr(len(st.Words))
	if n < m.size {
		return fmt.Errorf("mem: import image has %d words, current mapping needs %d",
			n, m.size)
	}
	if st.HeapNext < m.heapLo || st.HeapNext > m.heapHi {
		return fmt.Errorf("mem: import heap pointer %d outside heap [%d,%d)",
			st.HeapNext, m.heapLo, m.heapHi)
	}
	m.pages, m.size = make([]*Page, PageCount(n)), n
	for a, v := range st.Words {
		if v != 0 {
			m.Materialize(Addr(a) >> PageShift)[a&PageMask] = v
		}
	}
	m.heapNext = st.HeapNext
	return nil
}
