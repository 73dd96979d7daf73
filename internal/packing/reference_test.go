package packing

// Algorithm 1's search as it stood before running sums and bulk node
// counts, kept test-only as the oracle for
// TestMinimumSlackMatchesReference and FuzzMinimumSlack: a chosen stack
// passed whole to Fits at every node, so VectorConstraint re-sums the
// stack each time, and every node is counted on its own.

import "vdcpower/internal/units"

// refMinimumSlack is MinimumSlack without a pool, running sums or bulk
// node counts.
func refMinimumSlack(b *Bin, candidates []Item, cons VectorConstraint, cfg MinSlackConfig) MinSlackResult {
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = DefaultMinSlackConfig().MaxNodes
	}
	sorted := append([]Item(nil), candidates...)
	refSortItems(sorted)
	suffix := make([]units.Hertz, len(sorted)+1)
	for i := len(sorted) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + sorted[i].CPU
	}
	s := &refSearch{
		bin: b, items: sorted, suffix: suffix, cons: cons,
		eps: cfg.Epsilon, epsStep: cfg.EpsilonStep, budget: cfg.MaxNodes, best: b.Slack(),
	}
	s.dfs(0, b.Slack(), make([]Item, 0, len(sorted)))
	return MinSlackResult{Chosen: append([]Item(nil), s.bestSet...), Slack: s.best,
		Widened: s.widened, Nodes: s.nodes, Exhausted: s.exhausted}
}

// refSortItems is an insertion sort by compareItems: a different
// algorithm reaching the same total order.
func refSortItems(items []Item) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && compareItems(items[j], items[j-1]) < 0; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

type refSearch struct {
	bin       *Bin
	items     []Item
	suffix    []units.Hertz
	cons      VectorConstraint
	eps       units.Hertz
	epsStep   units.Hertz
	budget    int
	nodes     int
	widened   bool
	exhausted bool
	best      units.Hertz
	bestSet   []Item
	done      bool
}

func (s *refSearch) dfs(from int, slack units.Hertz, chosen []Item) {
	if s.done {
		return
	}
	if slack < s.best {
		s.best = slack
		s.bestSet = append(s.bestSet[:0], chosen...)
	}
	if s.best <= s.eps {
		s.done = true
		return
	}
	for i := from; i < len(s.items); i++ {
		if slack-s.suffix[i] >= s.best {
			return
		}
		s.nodes++
		if s.nodes > s.budget {
			if s.widened {
				s.done = true
				s.exhausted = true
				return
			}
			s.eps += s.epsStep
			s.widened = true
			s.budget *= 2
			if s.best <= s.eps {
				s.done = true
				return
			}
		}
		it := s.items[i]
		if it.CPU > slack+1e-12 {
			continue
		}
		chosen = append(chosen, it)
		if s.cons.Fits(s.bin, chosen) {
			s.dfs(i+1, slack-it.CPU, chosen)
			if s.done {
				return
			}
		}
		chosen = chosen[:len(chosen)-1]
	}
}
