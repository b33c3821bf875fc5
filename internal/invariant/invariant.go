// Package invariant is the live auditor: it walks machine state at a
// configurable cadence and asserts the paper's Section 3.2 stack
// invariants plus conservation properties the runtime relies on but never
// re-checks — the exported set is a well-formed heap over live, disjoint
// frame intervals; retired frames are never reachable from a pending
// context (so they cannot be re-entered); and the observability layer's
// cycle attribution never exceeds the cycles a worker actually ran.
//
// When a machine carries a canary map (the adversarial harness of
// internal/advprog), the auditor additionally enforces two security rules
// over the stamped per-frame canary words, following the caller-integrity /
// confidentiality framing of "Formalizing Stack Safety as a Security
// Property": no thread may clobber a live frame's retained words, and no
// private word may be exposed where a foreign frame could read it.
//
// The auditor runs at scheduler pick boundaries, where the machine is
// quiescent (both engines visit picks in the same order, and the throughput
// engine's speculative launch phase is over before a pick is handled),
// so every walk is read-only and charges no virtual cycles: auditing is
// invisible to the simulation's bytes. Failures carry a typed *Violation
// with a machine-state dump.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Violation is a typed invariant failure: which rule broke, on which
// worker, and a machine-state dump captured at detection.
type Violation struct {
	// Rule identifies the invariant class: "section-3.2" (the paper's
	// Invariants 1/2 plus the max-E mirror), "exportset-shape",
	// "exportset-live", "retired-reentry", "context-chain",
	// "obs-attribution", "sched-conservation", or the two canary-driven
	// security rules "caller-integrity" and "frame-confidentiality".
	Rule string
	// Worker is the worker the violation was found on (-1 = machine-wide).
	Worker int
	// Detail describes the specific failure.
	Detail string
	// Dump is a multi-line machine-state snapshot.
	Dump string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("invariant: %s violated on worker %d: %s", v.Rule, v.Worker, v.Detail)
}

// Auditor triggers full audits at a pick cadence. The zero value audits
// every DefaultEvery picks; create with New to choose the cadence.
type Auditor struct {
	// Every is the number of scheduler picks between audits (<= 0 uses
	// DefaultEvery). Cadence 1 audits at every pick.
	Every int64

	picks  int64
	audits int64
}

// DefaultEvery is the audit cadence when Auditor.Every is unset.
const DefaultEvery = 256

// New returns an auditor that audits every `every` picks.
func New(every int64) *Auditor { return &Auditor{Every: every} }

// Tick counts one scheduler pick and, at the cadence boundary, runs a
// full audit. It returns nil between boundaries and on a clean audit.
func (a *Auditor) Tick(m *machine.Machine) *Violation {
	if a == nil {
		return nil
	}
	every := a.Every
	if every <= 0 {
		every = DefaultEvery
	}
	a.picks++
	if a.picks%every != 0 {
		return nil
	}
	return a.Audit(m)
}

// Audits reports how many full audits have run.
func (a *Auditor) Audits() int64 {
	if a == nil {
		return 0
	}
	return a.audits
}

// Audit runs one full machine audit immediately.
func (a *Auditor) Audit(m *machine.Machine) *Violation {
	if a != nil {
		a.audits++
	}
	return Check(m)
}

// Check walks every worker and asserts the full invariant catalog. It
// returns the first violation found, or nil — the fast path for the live
// auditor, which aborts the run on any hit.
func Check(m *machine.Machine) *Violation {
	var first *Violation
	audit(m, func(v *Violation) bool { first = v; return false })
	return first
}

// CheckAll runs the same catalog but keeps walking after a hit, returning
// every violation found in detection order. Fuzzing triage uses it:
// correlated multi-worker failures (one clobber tripping integrity on the
// victim and a chain break on the attacker) surface together instead of
// hiding behind the first hit.
func CheckAll(m *machine.Machine) []*Violation {
	var all []*Violation
	audit(m, func(v *Violation) bool { all = append(all, v); return true })
	return all
}

// Report renders a multi-violation report for fuzzing triage: every rule
// hit by CheckAll, one per line, followed by a single machine dump.
func Report(m *machine.Machine) string {
	vs := CheckAll(m)
	if len(vs) == 0 {
		return "invariant: clean"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s)\n", len(vs))
	for i, v := range vs {
		fmt.Fprintf(&b, "  [%d] %s (worker %d): %s\n", i, v.Rule, v.Worker, v.Detail)
	}
	b.WriteString(Dump(m))
	return b.String()
}

// audit drives one machine walk, reporting violations through report;
// report returns false to stop the walk (the first-hit fast path).
func audit(m *machine.Machine, report func(*Violation) bool) {
	for i, w := range m.Workers {
		if !checkWorker(m, i, w, report) {
			return
		}
	}
	checkCanaries(m, report)
}

// checkWorker audits one worker, returning false when the walk must stop.
func checkWorker(m *machine.Machine, id int, w *machine.Worker, report func(*Violation) bool) bool {
	emit := func(rule, format string, args ...any) bool {
		return report(&Violation{Rule: rule, Worker: id, Detail: fmt.Sprintf(format, args...), Dump: Dump(m)})
	}

	// Section 3.2: Invariants 1 and 2, the max-E cell mirror, and
	// logical-stack link termination — the machine's own checker, forced
	// on for the audit.
	if err := w.AuditInvariants("audit"); err != nil {
		if !emit("section-3.2", "%v", err) {
			return false
		}
	}

	// The exported set of every segment must be a well-formed heap whose
	// entries are live, in-segment, disjoint frame intervals.
	for si, seg := range w.Segs {
		if err := seg.Exported.CheckShape(); err != nil {
			if !emit("exportset-shape", "segment %d: %v", si, err) {
				return false
			}
			continue // entries are not trustworthy past a shape failure
		}
		entries := seg.Exported.Entries()
		sort.Slice(entries, func(a, b int) bool { return entries[a].FP < entries[b].FP })
		for k, e := range entries {
			if !seg.Region.Contains(e.FP-1) || !seg.Region.Contains(e.Low) {
				if !emit("exportset-live", "segment %d: exported frame [%d,%d) outside region %v",
					si, e.Low, e.FP, seg.Region) {
					return false
				}
			}
			if k > 0 && entries[k-1].FP > e.Low {
				if !emit("exportset-live", "segment %d: exported frames [%d,%d) and [%d,%d) overlap",
					si, entries[k-1].Low, entries[k-1].FP, e.Low, e.FP) {
					return false
				}
			}
		}
	}

	// No context queued for resumption may reach a retired frame: a
	// frame's return slot is zeroed when it finishes (the epilogue's
	// frame-finished marking), so every frame on a pending chain must
	// still hold a nonzero return slot, and the chain's parent links must
	// walk from Top to Bottom without escaping memory.
	memSize := m.Mem.Size()
	for qi := 0; qi < w.ReadyQ.Len(); qi++ {
		c := w.ReadyQ.At(qi)
		if c.Top == 0 || c.Bottom == 0 {
			if !emit("context-chain", "readyq[%d]: null frame pointer (top=%d bottom=%d)", qi, c.Top, c.Bottom) {
				return false
			}
			continue
		}
		fp := c.Top
		for depth := 0; ; depth++ {
			if depth > 1<<20 {
				if !emit("context-chain", "readyq[%d]: unterminated chain from frame %d", qi, c.Top) {
					return false
				}
				break
			}
			if fp-2 < 0 || fp >= memSize {
				if !emit("context-chain", "readyq[%d]: chain frame %d outside memory", qi, fp) {
					return false
				}
				break
			}
			if ret := m.Mem.Load(fp - 1); ret == 0 {
				if !emit("retired-reentry", "readyq[%d]: pending chain reaches retired frame %d (return slot zeroed)", qi, fp) {
					return false
				}
				break
			}
			if fp == c.Bottom {
				break
			}
			fp = m.Mem.Load(fp - 2)
			if fp == 0 {
				if !emit("context-chain", "readyq[%d]: chain from %d broke before bottom %d", qi, c.Top, c.Bottom) {
					return false
				}
				break
			}
		}
	}

	// Conservation of attribution: the observability layer never invents
	// cycles — what it has attributed so far is bounded by the cycles the
	// worker actually ran (the residual becomes user time at finish).
	if w.Obs != nil {
		if att := w.Obs.AttributedTotal(); att > w.Cycles {
			if !emit("obs-attribution", "attributed %d cycles > worker ran %d", att, w.Cycles) {
				return false
			}
		}
	}
	return true
}

// checkCanaries enforces the two security rules against the machine's
// canary map (nil map = rules disarmed). Machine-wide: a clobber is
// charged to the worker that detected or suffered it, so the walk cannot
// live inside any single worker's check.
func checkCanaries(m *machine.Machine, report func(*Violation) bool) bool {
	cm := m.Opts.Canary
	if cm == nil {
		return true
	}

	// Faults the builtins queued since the last audit drain first: a
	// retire that found its word clobbered, a retire nobody registered,
	// or two frames stamping the same retained word.
	for _, f := range cm.Faults() {
		if !report(&Violation{Rule: f.Rule, Worker: f.Worker, Detail: f.Detail, Dump: Dump(m)}) {
			return false
		}
	}

	memSize := m.Mem.Size()
	for _, e := range cm.Live() {
		// frame-confidentiality first: a private (unpublished) word must
		// stay inside a stack segment of its owner, and — in the owner's
		// current segment — at or above the owner's stack top. An address
		// below SP is exposed: the runtime considers that space free, so
		// any callee or stolen thread may legitimately build a frame over
		// it and read what the owner left behind. Exposure is the root
		// cause of whatever value damage follows, so an exposed entry is
		// diagnosed as a confidentiality breach, not as the downstream
		// clobber.
		if e.Private {
			v, skip := confidentiality(m, e)
			if v != nil {
				if !report(v) {
					return false
				}
				continue
			}
			if skip {
				continue
			}
		}

		// caller-integrity: every live canary word still holds the value
		// its owner stamped. Any other thread writing it — through a stale
		// frame pointer, a reused-after-retire address, a bad args-region
		// store — flips the word and trips here before the owner's retire.
		if e.Addr < int64(mem.Guard) || e.Addr >= memSize {
			if !report(&Violation{Rule: "caller-integrity", Worker: e.Owner, Dump: Dump(m),
				Detail: fmt.Sprintf("live canary at %d (frame fp=%d) outside mapped memory [%d,%d)", e.Addr, e.FP, int64(mem.Guard), memSize)}) {
				return false
			}
			continue
		}
		if got := m.Mem.Load(e.Addr); got != e.Want {
			if !report(&Violation{Rule: "caller-integrity", Worker: e.Owner, Dump: Dump(m),
				Detail: fmt.Sprintf("live canary at %d clobbered: owner worker %d frame fp=%d stamped %d, memory holds %d",
					e.Addr, e.Owner, e.FP, e.Want, got)}) {
				return false
			}
		}
	}
	return true
}

// confidentiality checks one private canary entry. It returns a violation,
// or skip=true when the owner is mid frame transition and the exposure
// comparison must wait for the next audit (the Section 3.2 transient skip).
func confidentiality(m *machine.Machine, e *machine.CanaryEntry) (*Violation, bool) {
	if e.Owner < 0 || e.Owner >= len(m.Workers) {
		return &Violation{Rule: "frame-confidentiality", Worker: e.Owner, Dump: Dump(m),
			Detail: fmt.Sprintf("private canary at %d owned by unknown worker %d", e.Addr, e.Owner)}, false
	}
	owner := m.Workers[e.Owner]
	inOwnerSeg := false
	for _, s := range owner.Segs {
		if s.Region.Contains(e.Addr) {
			inOwnerSeg = true
			break
		}
	}
	if !inOwnerSeg {
		return &Violation{Rule: "frame-confidentiality", Worker: e.Owner, Dump: Dump(m),
			Detail: fmt.Sprintf("private canary at %d (frame fp=%d) escaped worker %d's stack segments", e.Addr, e.FP, e.Owner)}, false
	}
	// Mid-prologue/epilogue SP is transiently unordered with respect to
	// frame bounds; skip the exposure comparison exactly where the
	// Section 3.2 audit skips (AtFrameTransition).
	if owner.AtFrameTransition() {
		return nil, true
	}
	if owner.Stack().Contains(e.Addr) && e.Addr < owner.SP() {
		return &Violation{Rule: "frame-confidentiality", Worker: e.Owner, Dump: Dump(m),
			Detail: fmt.Sprintf("private canary at %d (frame fp=%d) exposed below worker %d's stack top sp=%d",
				e.Addr, e.FP, e.Owner, owner.SP())}, false
	}
	return nil, false
}

// Dump renders a compact machine-state snapshot for violation reports. It
// tolerates partially-initialized machines (nil memory, nil Obs, workers
// with no segments): violation paths must never panic while reporting.
func Dump(m *machine.Machine) string {
	if m == nil {
		return "machine: <nil>\n"
	}
	var b strings.Builder
	if m.Mem != nil {
		fmt.Fprintf(&b, "machine: mem=%d words, heap used=%d", m.Mem.Size(), m.Mem.HeapUsed())
	} else {
		b.WriteString("machine: mem=<nil>")
	}
	if cm := m.Opts.Canary; cm != nil {
		fmt.Fprintf(&b, ", canaries live=%d registered=%d retired=%d clobbered=%d",
			cm.LiveCount(), cm.Registered, cm.Retired, cm.Clobbered)
	}
	b.WriteByte('\n')
	for i, w := range m.Workers {
		if w == nil {
			fmt.Fprintf(&b, "w%d: <nil>\n", i)
			continue
		}
		fmt.Fprintf(&b, "w%d: pc=%d fp=%d sp=%d cycles=%d poll=%t readyq=%d",
			i, w.PC, w.FP(), w.SP(), w.Cycles, w.PollSignal, w.ReadyQ.Len())
		for si, seg := range w.Segs {
			if seg != nil && seg.Exported.Len() > 0 {
				fmt.Fprintf(&b, " seg%d.exported=%d(top=%d)", si, seg.Exported.Len(), seg.Exported.Top().FP)
			}
		}
		if w.Obs != nil {
			fmt.Fprintf(&b, " attributed=%d", w.Obs.AttributedTotal())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
