package modelspec

import (
	"fmt"
	"sort"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/views"
)

// operator compiles a validated graphs adversary over n+1 processes:
// per-graph in-neighbor lists plus the schedule as graph-index menus.
func (a *Adversary) operator(n int) roundop.Operator {
	gm := &graphsModel{inN: make([][][]int, len(a.Graphs))}
	for gi, g := range a.Graphs {
		inN := make([][]int, n+1)
		for _, e := range g.Edges {
			inN[e[1]] = append(inN[e[1]], e[0])
		}
		for _, ns := range inN {
			sort.Ints(ns)
		}
		gm.inN[gi] = inN
		gm.all = append(gm.all, gi)
	}
	for _, allowed := range a.Schedule {
		menu := append([]int(nil), allowed...)
		sort.Ints(menu)
		gm.sched = append(gm.sched, menu)
	}
	return graphsOperator{gm: gm}
}

// graphsModel is the compiled adversary, shared down the operator chain.
type graphsModel struct {
	inN   [][][]int // [graph][process] -> sorted in-neighbor ids
	all   []int     // every graph index: the menu of unscheduled rounds
	sched [][]int   // per-round allowed graph indices (nil: all, every round)
}

// graphsOperator enumerates one round of the adversary: one branch per
// allowed communication graph. The adversary's entire move is the graph
// choice — given the graph, each participant's next view is determined —
// so every branch carries singleton option tables (exactly one facet),
// and the build's count is the product of the round menus. No
// participant ever drops out: a message adversary delays messages, it
// does not crash senders.
type graphsOperator struct {
	gm    *graphsModel
	round int
}

func (o graphsOperator) Branches(cur []*views.View) ([]roundop.Branch, error) {
	pos := make(map[int]int, len(cur)) // process id -> position in cur
	for i, v := range cur {
		if v.P < 0 || v.P >= len(o.gm.inN[0]) {
			return nil, fmt.Errorf("modelspec: participant %d outside the spec's %d processes", v.P, len(o.gm.inN[0]))
		}
		pos[v.P] = i
	}
	allowed := o.gm.all
	if o.round < len(o.gm.sched) {
		allowed = o.gm.sched[o.round]
	}
	next := graphsOperator{gm: o.gm, round: o.round + 1}
	// A participant hears itself and its in-neighbours that participate;
	// every distinct in-neighbourhood is one heard set, built once.
	hs := views.NewHeardSets(cur)
	branches := make([]roundop.Branch, 0, len(allowed))
	for _, gi := range allowed {
		opts := make([][]pc.Option, len(cur))
		for i, v := range cur {
			mask := uint64(1) << i
			for _, q := range o.gm.inN[gi][v.P] {
				if j, ok := pos[q]; ok {
					mask |= 1 << j
				}
			}
			opts[i] = []pc.Option{pc.NewOption(hs.Of(mask).View(v.P))}
		}
		branches = append(branches, roundop.Branch{Opts: opts, Next: next})
	}
	return branches, nil
}
