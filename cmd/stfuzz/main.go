// Command stfuzz sweeps adversarial stack-safety programs over seed ranges:
// every seed becomes a hostile-but-well-formed fork-tree program (see
// internal/advprog) run on every engine with per-frame canaries armed,
// the Section 3.2 auditor at cadence 1, and a rotating fault plan injected.
// Any caller-integrity or frame-confidentiality break, result divergence or
// canary leak fails the sweep.
//
// Usage:
//
//	stfuzz -seeds 256                         # nightly sweep
//	stfuzz -seed 64                           # one seed, all classes
//	stfuzz -seed 64 -classes epiloguerace     # one seed, one attack class
//	stfuzz -seeds 64 -plan adversarial        # pin the fault plan
//	stfuzz -seeds 256 -corpus adv-corpus      # write failing-seed repros
//
// On failure the offending (seed, classes, plan) triple is shrunk — attack
// classes are dropped one at a time while the failure reproduces — and the
// minimal repro is printed and, with -corpus, written to a repro file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/advprog"
)

func main() {
	var (
		seeds   = flag.Int("seeds", 0, "sweep this many consecutive seeds (with -seed: starting there)")
		seed    = flag.Uint64("seed", 0, "single seed to run (sweep start when -seeds is set)")
		classes = flag.String("classes", "all", "attack classes: comma list, bitmask, or all")
		plan    = flag.String("plan", "", "fault plan name (default: per-seed rotation)")
		rotate  = flag.Bool("rotate", true, "rotate fault plans per seed when -plan is empty")
		workers = flag.Int("workers", 4, "virtual worker count")
		corpus  = flag.String("corpus", "", "directory for failing-seed repro files")
		quiet   = flag.Bool("quiet", false, "print failures only")
	)
	flag.Parse()

	cls, err := advprog.ParseClasses(*classes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stfuzz:", err)
		os.Exit(2)
	}
	n := *seeds
	if n <= 0 {
		n = 1
	}

	failures := 0
	for s := *seed; s < *seed+uint64(n); s++ {
		pl := *plan
		if pl == "" && *rotate {
			pl = advprog.PlanForSeed(s)
		}
		err := run(s, cls, pl, *workers)
		if err == nil {
			if !*quiet {
				fmt.Printf("ok   seed=%d classes=%s plan=%q\n", s, cls, pl)
			}
			continue
		}
		failures++
		minCls, minErr := shrink(s, cls, pl, *workers, err)
		fmt.Printf("FAIL seed=%d classes=%s plan=%q\n     %v\n", s, minCls, pl, minErr)
		fmt.Printf("     repro: go run ./cmd/stfuzz -seed %d -classes %d -plan %q -workers %d\n",
			s, uint8(minCls), pl, *workers)
		if *corpus != "" {
			if werr := writeRepro(*corpus, s, minCls, pl, *workers, minErr); werr != nil {
				fmt.Fprintln(os.Stderr, "stfuzz:", werr)
			}
		}
	}
	if failures > 0 {
		fmt.Printf("stfuzz: %d of %d seeds failed\n", failures, n)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("stfuzz: %d seeds clean\n", n)
	}
}

func run(seed uint64, cls advprog.Class, plan string, workers int) error {
	p := advprog.FromSeed(seed, cls)
	return advprog.Verify(p, advprog.VerifyOpts{
		Workers: workers,
		Engines: advprog.AllEngines(),
		Plan:    plan,
	})
}

// shrink greedily minimizes a failing class set: drop one class at a time,
// keeping the drop whenever the failure still reproduces. The result is a
// 1-minimal repro — removing any single remaining class makes it pass.
func shrink(seed uint64, cls advprog.Class, plan string, workers int, orig error) (advprog.Class, error) {
	minErr := orig
	for bit := advprog.Class(1); bit < advprog.AllClasses; bit <<= 1 {
		if cls&bit == 0 || cls == bit {
			continue
		}
		if err := run(seed, cls&^bit, plan, workers); err != nil {
			cls &^= bit
			minErr = err
		}
	}
	return cls, minErr
}

func writeRepro(dir string, seed uint64, cls advprog.Class, plan string, workers int, err error) error {
	if mkErr := os.MkdirAll(dir, 0o755); mkErr != nil {
		return mkErr
	}
	name := filepath.Join(dir, fmt.Sprintf("seed-%d.txt", seed))
	body := fmt.Sprintf("seed=%d\nclasses=%s (%d)\nplan=%q\nworkers=%d\nerror=%v\nrepro: go run ./cmd/stfuzz -seed %d -classes %d -plan %q -workers %d\n",
		seed, cls, uint8(cls), plan, workers, err, seed, uint8(cls), plan, workers)
	return os.WriteFile(name, []byte(body), 0o644)
}
