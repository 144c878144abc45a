// Incremental view maintenance — monotone Datalog means insertions can be
// propagated from the new facts alone instead of recomputing the closure
// (the monotonicity the paper's Section X argument leans on, turned into a
// feature). A link-graph reachability view is maintained live while edges
// stream in, and the last edge is retracted again (delete-rederive).
//
// Run with: go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	p, err := core.ParseProgram(`
		Reach(x, y) :- Link(x, y).
		Reach(x, z) :- Reach(x, y), Link(y, z).
	`)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := core.NewSession(p)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Initial graph: a 30-node chain.
	edb := workload.Chain("Link", 30)
	view, stats, err := sess.Materialize(ctx, edb, core.MaintainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial view: %d facts (%d firings)\n", view.Output().Len(), stats.Firings)

	// Stream in edges one at a time, maintaining the view incrementally.
	inserts := []core.GroundAtom{
		{Pred: "Link", Args: []core.Const{ast.Int(100), ast.Int(101)}}, // disconnected
		{Pred: "Link", Args: []core.Const{ast.Int(30), ast.Int(100)}},  // bridge
		{Pred: "Link", Args: []core.Const{ast.Int(101), ast.Int(0)}},   // closes a cycle
	}
	for _, ins := range inserts {
		diff, incStats, err := view.Apply(ctx, core.DatabaseDelta{Assert: []core.GroundAtom{ins}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("insert %v: +%d facts with %d firings (view now %d facts)\n",
			ins, len(diff.Added)-1, incStats.Firings, view.Output().Len())
	}
	check(p, withFacts(edb, inserts), view)

	// Retract the cycle-closing edge: the facts only it supported leave.
	last := inserts[len(inserts)-1]
	diff, _, err := view.Apply(ctx, core.DatabaseDelta{Retract: []core.GroundAtom{last}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retract %v: -%d facts (view now %d facts)\n", last, len(diff.Removed)-1, view.Output().Len())
	check(p, withFacts(edb, inserts[:len(inserts)-1]), view)
}

func withFacts(d *core.Database, facts []core.GroundAtom) *core.Database {
	out := d.Clone()
	for _, f := range facts {
		out.Add(f)
	}
	return out
}

// check cross-checks the maintained view against recomputation from
// scratch, failing the run on any difference.
func check(p *core.Program, input *core.Database, view *core.View) {
	fresh, freshStats, err := core.Eval(p, input, core.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("from-scratch recomputation: %d facts (%d firings)\n", fresh.Len(), freshStats.Firings)
	if !fresh.Equal(view.Output()) {
		log.Fatalf("maintained view (%d facts) differs from re-evaluation (%d facts)", view.Output().Len(), fresh.Len())
	}
	fmt.Println("maintained view matches re-evaluation")
}
