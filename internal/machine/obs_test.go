package machine

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/randprog"
	"repro/internal/stlib"
)

// obsInput is one program for the observed-run lockstep test: how to build
// its machine, the budget slice to run it in (97 cycles when zero) and
// whether it must end in a trap.
type obsInput struct {
	name     string
	prog     *isa.Program
	setup    func(m *Machine) []int64
	opts     Options
	slice    int64
	wantTrap bool
}

// TestObsFastPathMatchesSlowPath is the lockstep property for observed runs:
// with a collector attached, the batched tier (which stops a batch before the
// next sample boundary and attributes epilogue checks in bulk) must leave the
// worker and its WorkerObs exactly as one-instruction-at-a-time execution
// (NoFastPath) does, at every 97-cycle slice, and both runs must end with the
// same profile. Sample periods of 1 (every instruction samples), 97 (the
// slice length) and 521 (batches span several slices) cover the boundary.
// The trap case runs unsliced, so the faulting run is entered as a batch.
func TestObsFastPathMatchesSlowPath(t *testing.T) {
	inputs := []obsInput{{name: "mix", prog: mixProgram(t)}}
	for seed := int64(0); seed < 4; seed++ {
		root, _ := randprog.Generate(rand.New(rand.NewSource(seed^0x0b5)), 30)
		w := randprog.Workload(root)
		prog, err := w.Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		setup := func(m *Machine) []int64 {
			args, err := w.Setup(m.Mem)
			if err != nil {
				t.Fatalf("seed %d: setup: %v", seed, err)
			}
			return args
		}
		inputs = append(inputs, obsInput{name: fmt.Sprintf("rand%d", seed), prog: prog, setup: setup,
			opts: Options{StackWords: 1 << 13, Seed: uint64(seed)}})
		if seed == 0 {
			inputs = append(inputs, obsInput{name: "rand0-cilkcost", prog: prog, setup: setup,
				opts: Options{StackWords: 1 << 13, CilkCost: true}})
		}
	}
	// A division by zero in the middle of one long straightline run.
	inputs = append(inputs, obsInput{name: "trap-mid-block", slice: math.MaxInt64, wantTrap: true, prog: compileUnit(t, func(u *asm.Unit) {
		b := u.Proc("main", 0, 2)
		b.Const(isa.T0, 41)
		b.Const(isa.T1, 0)
		for i := 0; i < 300; i++ {
			b.AddI(isa.T0, isa.T0, 1)
			b.MulI(isa.T2, isa.T0, 3)
		}
		b.Div(isa.T2, isa.T0, isa.T1)
		for i := 0; i < 10; i++ {
			b.AddI(isa.T2, isa.T2, 1)
		}
		b.Ret(isa.T2)
	})})

	var epilogue int64
	for _, period := range []int64{1, 97, 521} {
		for _, in := range inputs {
			t.Run(fmt.Sprintf("%s/period%d", in.name, period), func(t *testing.T) {
				cf, cs := obs.New(), obs.New()
				cf.SamplePeriod, cs.SamplePeriod = period, period
				var trace strings.Builder
				wf, ws := startObserved(t, in, cf, nil), startObserved(t, in, cs, &trace)
				obsLockstep(t, in, wf, ws)
				if pf, ps := cf.Profile(), cs.Profile(); !slices.Equal(pf, ps) {
					t.Fatalf("profiles diverged:\n  fast: %v\n  slow: %v", pf, ps)
				}
				if wf.Cycles >= period && cf.Samples() == 0 {
					t.Fatalf("no profiler samples taken in %d cycles", wf.Cycles)
				}
				// Both runs share runBlock's definition, so check the
				// attribution against an independent oracle too.
				e := wf.Obs.Phase[obs.PhaseEpilogue]
				if want := traceCheckCycles(t, ws, trace.String()); e != want {
					t.Fatalf("epilogue phase = %d cycles, want %d (the traced check instructions)", e, want)
				}
				epilogue += e
			})
		}
	}
	if epilogue == 0 {
		t.Fatal("no input attributed epilogue-check cycles; the bulk attribution went unexercised")
	}
}

// startObserved builds the input's machine with collector c attached. A
// non-nil trace selects the one-instruction-at-a-time reference (NoFastPath)
// and receives its instruction trace.
func startObserved(t *testing.T, in obsInput, c *obs.Collector, trace io.Writer) *Worker {
	t.Helper()
	opts := in.opts
	opts.Obs = c
	if trace != nil {
		opts.NoFastPath, opts.Trace = true, trace
	}
	if opts.StackWords == 0 {
		opts.StackWords = 1 << 10
	}
	m := New(in.prog, mem.New(1<<10), isa.SPARC(), 1, opts)
	var args []int64
	entry := in.prog.EntryOf["main"]
	if in.setup != nil {
		args, entry = in.setup(m), in.prog.EntryOf[stlib.ProcBoot]
	}
	w := m.Workers[0]
	w.StartCall(entry, args)
	return w
}

// obsLockstep runs both workers in slices to the end, comparing the worker
// state and its observability state at every slice and every scheduler
// event.
func obsLockstep(t *testing.T, in obsInput, wf, ws *Worker) {
	t.Helper()
	slice := in.slice
	if slice == 0 {
		slice = 97
	}
	same := func(step int) {
		t.Helper()
		diffWorker(t, fmt.Sprintf("step %d", step), wf, ws)
		of, os := wf.Obs, ws.Obs
		if of.Phase != os.Phase || of.Samples != os.Samples || of.NextSample != os.NextSample {
			t.Fatalf("step %d: obs state diverged:\n  fast: phase=%v samples=%d next=%d\n  slow: phase=%v samples=%d next=%d",
				step, of.Phase, of.Samples, of.NextSample, os.Phase, os.Samples, os.NextSample)
		}
	}
	for step := 0; ; step++ {
		if step > 10_000_000 {
			t.Fatal("runaway program")
		}
		evF, evS := wf.Run(slice), ws.Run(slice)
		if evF != evS {
			t.Fatalf("step %d: events diverged: fast=%v slow=%v", step, evF, evS)
		}
		same(step)
		switch evF {
		case EvBudget, EvPoll:
		case EvBottom:
			for _, w := range []*Worker{wf, ws} {
				w.Shrink()
				c := w.ReadyQ.PopHead()
				if c == nil {
					t.Fatalf("step %d: deadlock at bottom", step)
				}
				w.StartThread(c)
			}
			same(step)
		case EvHalt:
			if in.wantTrap {
				t.Fatal("halted, want a trap")
			}
			return
		case EvTrap:
			if !in.wantTrap {
				t.Fatalf("step %d: unexpected trap: %v", step, wf.Err)
			}
			if wf.Err.Error() != ws.Err.Error() {
				t.Fatalf("trap errors diverged:\n  fast: %v\n  slow: %v", wf.Err, ws.Err)
			}
			return
		default:
			t.Fatalf("step %d: unexpected event %v", step, evF)
		}
	}
}

// traceCheckCycles computes the epilogue-check attribution from an
// instruction trace alone: the cost of every executed instruction that
// epilogue augmentation added (none in Cilk cost mode, which refunds them).
func traceCheckCycles(t *testing.T, w *Worker, trace string) int64 {
	t.Helper()
	if w.M.Opts.CilkCost {
		return 0
	}
	var sum int64
	for _, line := range strings.Split(trace, "\n") {
		i := strings.Index(line, " pc=")
		if i < 0 {
			continue
		}
		pc, err := strconv.ParseInt(strings.Fields(line[i+len(" pc="):])[0], 10, 64)
		if err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if w.M.isCheckPC[pc] {
			sum += w.M.Cost.OpCost[w.M.Prog.Code[pc].Op]
		}
	}
	return sum
}
