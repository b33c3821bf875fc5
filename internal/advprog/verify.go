package advprog

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/machine"
)

// VerifyOpts parameterizes one adversarial verification.
type VerifyOpts struct {
	// Workers is the virtual worker count (default 4).
	Workers int
	// Engines lists the engines to run and cross-compare (default
	// AllEngines).
	Engines []core.Engine
	// Plan names a fault preset to inject ("" = fault-free); the plan's
	// seed is the program seed, so one (seed, classes, plan) triple
	// reproduces the exact run.
	Plan string
	// AuditEvery is the auditor cadence (default 1: audit every pick).
	AuditEvery int64
}

// AllEngines is the default engine set Verify cross-compares.
func AllEngines() []core.Engine {
	return []core.Engine{core.EngineSequential, core.EngineThroughput}
}

// Verify runs the program on every requested engine with the canary map
// armed and the invariant auditor at cadence AuditEvery, and asserts the
// three harness properties: no violation (the auditor aborts the run on
// any), the accumulator matches Expected on every engine, results are
// byte-identical across engines, and every stamped canary was retired.
// The returned error carries the failing engine and rule; nil means the
// program could not break the frame discipline.
func Verify(p *Program, o VerifyOpts) error {
	if p == nil || p.Root == nil {
		return errors.New("advprog: nil program")
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	engines := o.Engines
	if len(engines) == 0 {
		engines = AllEngines()
	}
	auditEvery := o.AuditEvery
	if auditEvery <= 0 {
		auditEvery = 1
	}
	want := p.Expected()

	var ref *core.Result
	var refEngine core.Engine
	for _, engine := range engines {
		var inj *fault.Injector
		if o.Plan != "" {
			plan, err := fault.PlanByName(o.Plan)
			if err != nil {
				return err
			}
			plan.Seed = p.Seed
			inj = fault.New(&plan)
		}
		cm := machine.NewCanaryMap()
		res, err := core.Run(Workload(p), core.Config{
			Mode:    core.StackThreads,
			Workers: workers,
			Engine:  engine,
			Seed:    p.Seed,
			Audit:   invariant.New(auditEvery),
			Canary:  cm,
			Fault:   inj,
		})
		if err != nil {
			var v *invariant.Violation
			if errors.As(err, &v) {
				return fmt.Errorf("advprog: seed=%d classes=%s plan=%q engine=%s: rule %s broken: %w",
					p.Seed, p.Classes, o.Plan, engine, v.Rule, err)
			}
			return fmt.Errorf("advprog: seed=%d classes=%s plan=%q engine=%s: run failed: %w",
				p.Seed, p.Classes, o.Plan, engine, err)
		}
		if res.RV != want {
			return fmt.Errorf("advprog: seed=%d classes=%s plan=%q engine=%s: accumulator=%d, want %d",
				p.Seed, p.Classes, o.Plan, engine, res.RV, want)
		}
		if n := cm.LiveCount(); n != 0 {
			return fmt.Errorf("advprog: seed=%d classes=%s plan=%q engine=%s: %d canaries leaked (registered=%d retired=%d)",
				p.Seed, p.Classes, o.Plan, engine, n, cm.Registered, cm.Retired)
		}
		if ref == nil {
			ref, refEngine = res, engine
			continue
		}
		if err := sameResult(ref, res); err != nil {
			return fmt.Errorf("advprog: seed=%d classes=%s plan=%q: engines %s and %s diverge: %w",
				p.Seed, p.Classes, o.Plan, refEngine, engine, err)
		}
	}
	return nil
}

// sameResult compares the deterministic fields two engines must agree on.
func sameResult(a, b *core.Result) error {
	type pair struct {
		name string
		x, y int64
	}
	for _, p := range []pair{
		{"rv", a.RV, b.RV},
		{"time", a.Time, b.Time},
		{"workcycles", a.WorkCycles, b.WorkCycles},
		{"instrs", a.Instrs, b.Instrs},
		{"steals", a.Steals, b.Steals},
		{"attempts", a.Attempts, b.Attempts},
		{"rejects", a.Rejects, b.Rejects},
		{"picks", a.Picks, b.Picks},
	} {
		if p.x != p.y {
			return fmt.Errorf("%s: %d vs %d", p.name, p.x, p.y)
		}
	}
	return nil
}

// PlanForSeed rotates a seed through the fault-free run and every
// simulation-perturbing preset, adversarial first — the fuzz driver's
// default chaos schedule.
func PlanForSeed(seed uint64) string {
	plans := append([]string{"", "adversarial"}, fault.SimPlanNames()...)
	return plans[seed%uint64(len(plans))]
}
