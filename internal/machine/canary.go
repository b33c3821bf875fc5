package machine

import (
	"fmt"
	"sort"
)

// CanaryMap is the host-side taint map behind the adversarial stack-safety
// harness (ROADMAP item 5). Generated programs stamp per-frame canary words
// through the canary/canary_retire builtins; the map remembers, for every
// live canary, which worker stamped it, from which frame, with what value,
// and whether the word is private (unpublished) or shared. The invariant
// auditor reads the map at pick boundaries to enforce two security rules:
//
//   - caller-integrity: a live canary word still holds the value its owner
//     stamped (no other thread clobbered retained frame state), and every
//     retire finds its word intact;
//   - frame-confidentiality: a private canary word stays inside a stack
//     segment of its owner, at or above the owner's stack top — it is never
//     exposed below SP where a foreign frame could be built over it, and
//     never migrates out of the owner's stacks.
//
// The map mutates only inside the two builtins, which are spec-forbidden
// whenever a map is installed: on the throughput engine every mutation
// therefore replays in exact sequential pick order, so the map's
// contents — and any faults it records — are byte-identical across engines.
type CanaryMap struct {
	entries map[int64]*CanaryEntry
	faults  []CanaryFault

	// Registered, Retired and Clobbered count lifetime events for reports.
	Registered int64
	Retired    int64
	Clobbered  int64
}

// CanaryEntry is one live canary word.
type CanaryEntry struct {
	Addr    int64 // stamped memory address
	Want    int64 // value the owner stored
	Owner   int   // worker that stamped it
	FP      int64 // owner frame's FP at stamping time
	Private bool  // unpublished: confidentiality rule applies
}

// CanaryFault is a recorded violation of one of the two security rules.
type CanaryFault struct {
	// Rule is "caller-integrity" or "frame-confidentiality".
	Rule   string
	Worker int
	Detail string
}

// NewCanaryMap returns an empty map ready to be installed in Options.Canary.
func NewCanaryMap() *CanaryMap {
	return &CanaryMap{entries: map[int64]*CanaryEntry{}}
}

// register records a stamped canary. Stamping over a word another frame
// still retains is itself an integrity fault (two frames cannot both own
// one retained word); the newer owner wins so its retire can still match.
func (c *CanaryMap) register(w *Worker, addr, val int64, private bool) {
	if old, ok := c.entries[addr]; ok {
		c.fault("caller-integrity", w.ID, fmt.Sprintf(
			"canary overlap at %d: worker %d frame fp=%d stamps over live canary of worker %d frame fp=%d",
			addr, w.ID, w.FP(), old.Owner, old.FP))
	}
	c.entries[addr] = &CanaryEntry{
		Addr: addr, Want: val, Owner: w.ID, FP: w.FP(), Private: private,
	}
	c.Registered++
}

// retire validates and releases a canary: got is the word's current memory
// value. A mismatch or a retire of a word nobody registered is recorded as
// a caller-integrity fault; either way the address is released so one bad
// frame cannot cascade.
func (c *CanaryMap) retire(w *Worker, addr, want, got int64) {
	e, ok := c.entries[addr]
	if !ok {
		c.fault("caller-integrity", w.ID, fmt.Sprintf(
			"retire of unregistered canary at %d (want %d, memory holds %d)", addr, want, got))
		return
	}
	delete(c.entries, addr)
	c.Retired++
	if got != e.Want {
		c.Clobbered++
		c.fault("caller-integrity", w.ID, fmt.Sprintf(
			"canary at %d clobbered: owner worker %d frame fp=%d stamped %d, retire found %d",
			addr, e.Owner, e.FP, e.Want, got))
	}
}

func (c *CanaryMap) fault(rule string, worker int, detail string) {
	c.faults = append(c.faults, CanaryFault{Rule: rule, Worker: worker, Detail: detail})
}

// RecordFault appends an externally detected violation (the invariant
// auditor's confidentiality sweep uses it). Exported for package invariant.
func (c *CanaryMap) RecordFault(rule string, worker int, detail string) {
	c.fault(rule, worker, detail)
}

// RegisterRaw inserts a live entry directly, bypassing the builtin path.
// Sabotage tests use it to plant canaries the program never stamped and
// prove the audit rules fire on them.
func (c *CanaryMap) RegisterRaw(e CanaryEntry) {
	c.entries[e.Addr] = &e
	c.Registered++
}

// Faults returns the recorded faults in detection order.
func (c *CanaryMap) Faults() []CanaryFault {
	return append([]CanaryFault(nil), c.faults...)
}

// Live returns the live entries sorted by address — a deterministic order
// for audits and reports.
func (c *CanaryMap) Live() []*CanaryEntry {
	out := make([]*CanaryEntry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// LiveCount returns the number of currently registered canaries.
func (c *CanaryMap) LiveCount() int { return len(c.entries) }
