package main

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"gaussrange"
)

// writeGroup is the acknowledged writes that published one epoch: a wal
// commit group can carry several.
type writeGroup struct {
	epoch   uint64
	inserts [][]float64
	ids     []int64
	deletes []int64
}

// ackedWriteGroups groups the acknowledged writes among recs by the epoch
// each reply carried, in epoch order, inserts sorted by assigned id.
func ackedWriteGroups(ops []op, recs []*record) []writeGroup {
	byEpoch := map[uint64]*writeGroup{}
	for _, r := range recs {
		if r.kind == opQuery || r.out.err != "" {
			continue
		}
		g := byEpoch[r.out.epoch]
		if g == nil {
			g = &writeGroup{epoch: r.out.epoch}
			byEpoch[r.out.epoch] = g
		}
		if r.kind == opInsert {
			g.inserts = append(g.inserts, ops[r.op].pts...)
			g.ids = append(g.ids, r.out.ids...)
		} else {
			g.deletes = append(g.deletes, ops[r.op].id)
		}
	}
	groups := make([]writeGroup, 0, len(byEpoch))
	for _, g := range byEpoch {
		idx := make([]int, len(g.ids))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return g.ids[idx[a]] < g.ids[idx[b]] })
		ins, ids := make([][]float64, len(idx)), make([]int64, len(idx))
		for i, j := range idx {
			ins[i], ids[i] = g.inserts[j], g.ids[j]
		}
		g.inserts, g.ids = ins, ids
		groups = append(groups, *g)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].epoch < groups[b].epoch })
	return groups
}

// checkAnswers compares every answered query among recs with an in-process
// oracle: gaussrange.Load of the same points on the pointer-tree front half
// (WithPointerPhase1) with the default exact evaluator. The oracle replays
// the acknowledged writes with ApplyWithIDs, one batch per published epoch,
// and checks each query against the state at the epoch its reply carried.
// Mismatched records are marked wrong; the count is returned.
func checkAnswers(pts [][]float64, ops []op, recs []*record, workers int) (int, error) {
	oracle, err := gaussrange.Load(pts, gaussrange.WithPointerPhase1())
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	var queries []*record
	for _, r := range recs {
		if r.kind == opQuery && r.out.err == "" {
			queries = append(queries, r)
		}
	}
	sort.SliceStable(queries, func(a, b int) bool { return queries[a].out.epoch < queries[b].out.epoch })
	wrong := 0
	check := func(batch []*record) error {
		specs := make([]gaussrange.QuerySpec, len(batch))
		for i, r := range batch {
			specs[i] = ops[r.op].spec()
		}
		res, err := oracle.QueryBatch(context.Background(), specs, workers)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		for i, r := range batch {
			if !sameIDs(res[i].IDs, r.out.ids) {
				r.wrong = true
				wrong++
			}
		}
		return nil
	}
	next := 0
	// pending returns the queries that pinned an epoch before e.
	pending := func(e uint64) []*record {
		j := next
		for j < len(queries) && queries[j].out.epoch < e {
			j++
		}
		batch := queries[next:j]
		next = j
		return batch
	}
	for _, g := range ackedWriteGroups(ops, recs) {
		if err := check(pending(g.epoch)); err != nil {
			return wrong, err
		}
		if _, _, err := oracle.ApplyWithIDs(g.inserts, g.ids, g.deletes); err != nil {
			return wrong, fmt.Errorf("oracle replay of epoch %d: %w", g.epoch, err)
		}
	}
	if err := check(queries[next:]); err != nil {
		return wrong, err
	}
	return wrong, nil
}

func sameIDs(a, b []int64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return slices.Equal(a, b)
}

// checkDurable rebuilds a DB from the base points plus the wal in dir and
// marks every acknowledged write it lost: an insert missing at its id or
// coordinates, or a delete whose id is still present. The OS page cache
// survives this check, so it is a restart test, not a power-loss test.
func checkDurable(pts [][]float64, dir string, ops []op, recs []*record) (int, error) {
	db, err := gaussrange.Load(pts, dbOptions()...)
	if err != nil {
		return 0, err
	}
	if _, err := db.AttachWAL(gaussrange.WALConfig{Dir: dir}); err != nil {
		return 0, fmt.Errorf("reopening wal: %w", err)
	}
	defer db.DetachWAL()
	lost := 0
	for _, r := range recs {
		if r.kind == opQuery || r.out.err != "" {
			continue
		}
		missing := false
		switch r.kind {
		case opInsert:
			for j, id := range r.out.ids {
				p, err := db.Point(id)
				if err != nil || !slices.Equal(p, ops[r.op].pts[j]) {
					missing = true
				}
			}
		case opDelete:
			if _, err := db.Point(ops[r.op].id); err == nil {
				missing = true
			}
		}
		if missing {
			r.wrong = true
			lost++
		}
	}
	return lost, nil
}
