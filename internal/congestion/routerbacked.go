package congestion

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/topology"
)

// RouterBacked reproduces the Brite experiment of Section 5: each logical
// (AS-level) link is backed by a sequence of router-level links; router-level
// links congest independently; a logical link is congested iff at least one
// of its underlying router-level links is congested. Two logical links are
// correlated exactly when they share a router-level link.
type RouterBacked struct {
	// Backing[k] lists the router-level link indices underlying logical
	// link k. Router-level indices live in their own namespace [0, numRouter).
	Backing [][]int
	// RouterP[r] = P(router-level link r congested).
	RouterP []float64

	numRouter int
	// backs[r] lists the logical links router-level link r backs, the
	// inverse of Backing, so Sample marks a congested router's links
	// without a per-snapshot router-state buffer.
	backs [][]int
}

// NewRouterBacked validates and builds the model.
func NewRouterBacked(backing [][]int, routerP []float64) (*RouterBacked, error) {
	for r, p := range routerP {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("congestion: router link %d probability %v out of [0,1]", r, p)
		}
	}
	for k, b := range backing {
		if len(b) == 0 {
			return nil, fmt.Errorf("congestion: logical link %d has no backing router links", k)
		}
		for _, r := range b {
			if r < 0 || r >= len(routerP) {
				return nil, fmt.Errorf("congestion: logical link %d references unknown router link %d", k, r)
			}
		}
	}
	cp := make([][]int, len(backing))
	backs := make([][]int, len(routerP))
	for k, b := range backing {
		cp[k] = append([]int{}, b...)
		for _, r := range b {
			backs[r] = append(backs[r], k)
		}
	}
	return &RouterBacked{
		Backing:   cp,
		RouterP:   append([]float64{}, routerP...),
		numRouter: len(routerP),
		backs:     backs,
	}, nil
}

// NumLinks implements Model.
func (m *RouterBacked) NumLinks() int { return len(m.Backing) }

// NumRouterLinks returns the size of the underlying router-level namespace.
func (m *RouterBacked) NumRouterLinks() int { return m.numRouter }

// Sample implements Model: draw router-level states in router order and
// mark every logical link a congested router link backs.
func (m *RouterBacked) Sample(rng *rand.Rand, out *bitset.Set) {
	out.Clear()
	for r, p := range m.RouterP {
		if p > 0 && rng.Float64() < p {
			for _, k := range m.backs[r] {
				out.Add(k)
			}
		}
	}
}

// Marginal implements Model: P(Xk = 1) = 1 − Π (1 − pr) over backing links.
func (m *RouterBacked) Marginal(link topology.LinkID) float64 {
	p := 1.0
	for _, r := range m.Backing[link] {
		p *= 1 - m.RouterP[r]
	}
	return 1 - p
}

// ProbAllGood implements Model: all logical links good ⇔ every router link
// in the union of their backings is good.
func (m *RouterBacked) ProbAllGood(links *bitset.Set) float64 {
	seen := bitset.New(m.numRouter)
	p := 1.0
	links.ForEach(func(k int) bool {
		for _, r := range m.Backing[k] {
			if !seen.Contains(r) {
				seen.Add(r)
				p *= 1 - m.RouterP[r]
			}
		}
		return true
	})
	return p
}

// CorrelationGroups partitions the logical links into groups that share at
// least one router-level link (transitively). The result is the correlation-
// set structure the Brite experiment hands to the tomography algorithm:
// links in different groups are genuinely independent under this model.
func (m *RouterBacked) CorrelationGroups() [][]int {
	// Union-find over logical links keyed by shared router links.
	parent := make([]int, len(m.Backing))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	owner := make([]int, m.numRouter)
	for i := range owner {
		owner[i] = -1
	}
	for k, b := range m.Backing {
		for _, r := range b {
			if owner[r] == -1 {
				owner[r] = k
			} else {
				union(owner[r], k)
			}
		}
	}
	groups := map[int][]int{}
	for k := range m.Backing { // ascending k ⇒ members sorted, g[0] smallest
		root := find(k)
		groups[root] = append(groups[root], k)
	}
	// Emit deterministically, ordered by each group's smallest member.
	out := make([][]int, 0, len(groups))
	for k := range m.Backing {
		if g, ok := groups[find(k)]; ok && g[0] == k {
			out = append(out, g)
			delete(groups, find(k))
		}
	}
	return out
}
