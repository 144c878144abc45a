package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/workload"
)

// The optimize workload: the paper's pipeline, one closed-loop client.
// Each iteration builds a seeded random program, injects redundant atoms
// and rules, registers it as v1, vets and minimizes it, registers the
// minimized program as v2, compares v1 with v2, and minimizes v2 again.
// The containment checker, the minimizer, verdict-store and plan-cache
// misses (every program is new), static analysis and program parsing do
// the work; the databases involved are tiny frozen bodies.
const (
	optRules         = 10
	optAtomsPerRule  = 2
	optInjectedRules = 3
	// optCountedPrograms is how many leading programs of a seed's stream
	// the removed-atoms and removed-rules counters average over, so the
	// counters repeat exactly for a seed however fast the run is.
	optCountedPrograms = 50
)

// optProgram returns the i-th program of a seed's stream, with redundancy
// injected, rendered as source.
func optProgram(seed int64, i int) string {
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(i)))
	p := workload.RandomProgram(rng, optRules)
	p = workload.InjectRedundantAtomsProgram(p, optAtomsPerRule, rng)
	return workload.InjectRedundantRules(p, optInjectedRules, rng).Format(nil)
}

// programSize counts the rules and body atoms of a rendered program
// textually, without the engine's parser: one rule per line, one atom per
// opening parenthesis after ":-".
func programSize(src string) (rules, atoms int) {
	for _, line := range strings.Split(src, "\n") {
		if _, body, ok := strings.Cut(line, ":-"); ok {
			rules++
			atoms += strings.Count(body, "(")
		}
	}
	return rules, atoms
}

// optResult is one pipeline's answers.
type optResult struct {
	Vet          []string `json:"vet"` // diagnostic codes
	VetErrors    bool     `json:"vet_errors"`
	Program      string   `json:"program"`
	AtomsRemoved int      `json:"atoms_removed"`
	RulesRemoved int      `json:"rules_removed"`
	Equivalent   bool     `json:"equivalent"`
	// Again is what re-minimizing the minimized program removed.
	AgainAtoms int `json:"again_atoms"`
	AgainRules int `json:"again_rules"`
}

// check is the optimize oracle: v1 and v2 are equivalent, minimizing the
// minimized program again removes nothing (Theorem 2: the output is
// minimal), and the output has fewer body atoms and no more rules than the
// injected program it came from. The injected atoms are redundant by
// construction, so a minimal output must have lost at least one.
//
// The output need not be as small as the program before injection:
// removing redundant atoms one at a time yields a minimal program, not a
// smallest one. Seed 8's program 3768 shows it: its rule
// Q(z, z) :- A(z, 0) becomes Q(z, z) :- A(z, 0), A(red0, 0), A(z, red1),
// from which the minimizer drops A(z, 0) and keeps the two injected atoms,
// because other rules of the program derive what the more general rule
// adds.
func (o optResult) check(injected string) error {
	if o.VetErrors {
		return fmt.Errorf("wrong answer: vet reports errors %v on a well-formed program", o.Vet)
	}
	if !o.Equivalent {
		return fmt.Errorf("wrong answer: minimized program not equivalent to its input")
	}
	r0, a0 := programSize(injected)
	r1, a1 := programSize(o.Program)
	if r1 > r0 || a1 >= a0 {
		return fmt.Errorf("wrong answer: minimized program has %d rules and %d atoms, its redundant input %d and %d", r1, a1, r0, a0)
	}
	if o.AgainAtoms != 0 || o.AgainRules != 0 {
		return fmt.Errorf("wrong answer: re-minimizing removed %d atoms and %d rules", o.AgainAtoms, o.AgainRules)
	}
	return nil
}

func (o optResult) digest() uint64 {
	b, _ := json.Marshal(o) // plain fields always encode
	return digest(b)
}

// optimizeRun is the HTTP leg of the optimize workload.
type optimizeRun struct {
	h       *harness
	seed    int64
	removed [][2]int // atoms and rules removed from each of the first programs
}

// warmUpPrograms are the paper's example programs (Examples 1, 11 and 19).
// Set-up registers, vets and minimizes each, so the first timed pipeline
// does not pay the server's first-use costs.
var warmUpPrograms = []string{
	workload.TransitiveClosure().Format(nil),
	workload.TransitiveClosureGuarded().Format(nil),
	workload.Example19Program().Format(nil),
}

func setupOptimize(h *harness, seed int64) (run, error) {
	for k, src := range warmUpPrograms {
		path := fmt.Sprintf("/v1/programs/example%d", k)
		var reg, vet, minimized map[string]any
		if err := h.post(-1, "register", path, map[string]any{"source": src}, &reg); err != nil {
			return nil, err
		}
		if err := h.post(-1, "vet", path+"/vet", map[string]any{}, &vet); err != nil {
			return nil, err
		}
		if err := h.post(-1, "minimize", path+"/minimize", map[string]any{}, &minimized); err != nil {
			return nil, err
		}
	}
	return &optimizeRun{h: h, seed: seed}, nil
}

type minimizeAnswer struct {
	Program      string `json:"program"`
	AtomsRemoved int    `json:"atoms_removed"`
	RulesRemoved int    `json:"rules_removed"`
}

func (r *optimizeRun) op(c, i int) (uint64, error) {
	src := optProgram(r.seed, i)
	op := opID(c, i)
	path := fmt.Sprintf("/v1/programs/p%d", i)
	var res optResult
	var reg struct {
		Version int `json:"version"`
	}
	if err := r.h.post(op, "register", path, map[string]any{"source": src}, &reg); err != nil {
		return 0, err
	}
	var vet struct {
		Diagnostics []struct {
			Code string `json:"code"`
		} `json:"diagnostics"`
		Errors bool `json:"errors"`
	}
	if err := r.h.post(op, "vet", path+"/vet", map[string]any{"program_version": 1}, &vet); err != nil {
		return 0, err
	}
	for _, d := range vet.Diagnostics {
		res.Vet = append(res.Vet, d.Code)
	}
	res.VetErrors = vet.Errors
	var min1 minimizeAnswer
	if err := r.h.post(op, "minimize", path+"/minimize", map[string]any{"program_version": 1}, &min1); err != nil {
		return 0, err
	}
	res.Program, res.AtomsRemoved, res.RulesRemoved = min1.Program, min1.AtomsRemoved, min1.RulesRemoved
	if err := r.h.post(op, "register", path, map[string]any{"source": min1.Program}, &reg); err != nil {
		return 0, err
	}
	var cmp struct {
		Equivalent bool `json:"equivalent"`
	}
	if err := r.h.post(op, "compare", path+"/compare", map[string]any{"version_a": 1, "version_b": reg.Version}, &cmp); err != nil {
		return 0, err
	}
	res.Equivalent = cmp.Equivalent
	var min2 minimizeAnswer
	if err := r.h.post(op, "reminimize", path+"/minimize", map[string]any{"program_version": reg.Version}, &min2); err != nil {
		return 0, err
	}
	res.AgainAtoms, res.AgainRules = min2.AtomsRemoved, min2.RulesRemoved
	if err := res.check(src); err != nil {
		return 0, fmt.Errorf("program %d: %w", i, err)
	}
	if i < optCountedPrograms {
		r.removed = append(r.removed, [2]int{res.AtomsRemoved, res.RulesRemoved})
	}
	return res.digest(), nil
}

func (r *optimizeRun) verify() error { return nil }

func (r *optimizeRun) counters() map[string]float64 {
	var atoms, rules float64
	for _, x := range r.removed {
		atoms += float64(x[0])
		rules += float64(x[1])
	}
	n := float64(len(r.removed))
	return map[string]float64{
		"minimize.atoms_removed_per_program": ratio(atoms, n),
		"minimize.rules_removed_per_program": ratio(rules, n),
	}
}

func (r *optimizeRun) close() {}

// optimizeReplay is the replay leg: the same pipeline through the layers'
// public functions, mirroring the register, vet, minimize and compare
// handlers.
type optimizeReplay struct {
	seed int64
	svc  *core.Service
}

func replayOptimize(seed int64) (replayer, error) {
	return &optimizeReplay{seed: seed, svc: core.NewService(core.SessionOptions{PlanCache: core.NewPlanCache(0)})}, nil
}

func (r *optimizeReplay) op(c, i int, t opTrace) (uint64, error) {
	src := optProgram(r.seed, i)
	ctx := context.Background()
	syms := ast.NewSymbolTable()
	register := func(src string) (*core.Session, error) {
		var res *parser.Result
		var err error
		t.around("parser.program", func() { res, err = parser.ParseWithSymbols(src, syms) })
		if err != nil {
			return nil, fmt.Errorf("parsing program: %w", err)
		}
		var s *core.Session
		t.around("eval.prepare", func() { s, err = r.svc.Open(res.Program) })
		return s, err
	}
	minimize := func(s *core.Session) (string, int, int, error) {
		var q *core.Program
		var tr core.MinimizeTrace
		var err error
		t.around("minimize.program", func() { q, tr, err = s.Minimize(ctx, core.MinimizeOptions{}) })
		if err != nil {
			return "", 0, 0, fmt.Errorf("minimizing: %w", err)
		}
		var text string
		t.around("ast.render", func() {
			text = q.Format(syms)
			_, err = json.Marshal(map[string]any{"program": text})
		})
		return text, tr.AtomsRemoved(), tr.RulesRemoved(), err
	}

	var res optResult
	s1, err := register(src)
	if err != nil {
		return 0, err
	}
	t.around("analysis.vet", func() {
		var pr *core.ParseResult
		if pr, err = core.ParseLoose(src); err != nil {
			return
		}
		diags := core.Analyze(pr)
		for _, d := range diags {
			res.Vet = append(res.Vet, d.Code)
		}
		res.VetErrors = core.AnalysisHasErrors(diags)
	})
	if err != nil {
		return 0, fmt.Errorf("vetting: %w", err)
	}
	if res.Program, res.AtomsRemoved, res.RulesRemoved, err = minimize(s1); err != nil {
		return 0, err
	}
	s2, err := register(res.Program)
	if err != nil {
		return 0, err
	}
	t.around("chase.compare", func() { res.Equivalent, err = s1.Compare(ctx, s2) })
	if err != nil {
		return 0, fmt.Errorf("comparing: %w", err)
	}
	if _, res.AgainAtoms, res.AgainRules, err = minimize(s2); err != nil {
		return 0, err
	}
	return res.digest(), nil
}
