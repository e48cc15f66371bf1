// Package topology implements the network model of Section 2 of the paper:
// a directed graph of logical links, a set of measurement paths over those
// links, and a partition of the links into correlation sets. It also provides
// the path-coverage function ψ, the Assumption-4 identifiability check, and
// the link-merge transformation described in Section 3.3.
//
// Links and paths are referred to by dense integer IDs (LinkID, PathID);
// the bit-set representation in internal/bitset is built on those IDs.
package topology

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bitset"
)

// NodeID identifies a node (network element) in the graph.
type NodeID int

// LinkID identifies a logical link (directed edge) in the graph.
type LinkID int

// PathID identifies a measurement path.
type PathID int

// Link is a directed logical link between two network elements. A logical
// link may abstract a sequence of physical links (an IP-level or domain-level
// link), which is exactly why links can be correlated.
type Link struct {
	ID   LinkID
	Src  NodeID
	Dst  NodeID
	Name string // optional human-readable label, e.g. "e1"
}

// Path is a loop-free sequence of links whose end-to-end congestion status
// can be observed. Links lists the traversed links in order.
type Path struct {
	ID    PathID
	Links []LinkID
	Name  string // optional label, e.g. "P1"
}

// Topology bundles the graph, the measurement paths and the correlation
// partition. Construct one with NewBuilder; a constructed Topology is
// immutable and safe for concurrent use.
type Topology struct {
	nodes []NodeID
	links []Link
	paths []Path

	// sets[p] is the p-th correlation set, a set of LinkIDs.
	// setOf[linkID] is the index of the correlation set containing the link.
	sets  []*bitset.Set
	setOf []int

	// coverage[linkID] is ψ({link}): the set of paths traversing the link.
	coverage []*bitset.Set
	// pathLinks[pathID] is the set of links on the path.
	pathLinks []*bitset.Set
}

// NumNodes returns the number of nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks returns the number of links |E|.
func (t *Topology) NumLinks() int { return len(t.links) }

// NumPaths returns the number of paths |P|.
func (t *Topology) NumPaths() int { return len(t.paths) }

// NumSets returns the number of correlation sets |C|.
func (t *Topology) NumSets() int { return len(t.sets) }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Links returns all links. The returned slice must not be modified.
func (t *Topology) Links() []Link { return t.links }

// Path returns the path with the given ID.
func (t *Topology) Path(id PathID) Path { return t.paths[id] }

// Paths returns all paths. The returned slice must not be modified.
func (t *Topology) Paths() []Path { return t.paths }

// PathLinkSet returns the set of links on the given path.
// The returned set must not be modified.
func (t *Topology) PathLinkSet(id PathID) *bitset.Set { return t.pathLinks[id] }

// SetOf returns the index of the correlation set containing the link.
func (t *Topology) SetOf(id LinkID) int { return t.setOf[id] }

// CorrelationSet returns the p-th correlation set as a set of LinkIDs.
// The returned set must not be modified.
func (t *Topology) CorrelationSet(p int) *bitset.Set { return t.sets[p] }

// LinkCoverage returns ψ({link}) — the set of paths traversing the link.
// The returned set must not be modified.
func (t *Topology) LinkCoverage(id LinkID) *bitset.Set { return t.coverage[id] }

// Coverage computes ψ(A) for a set of links A: the set of paths that traverse
// at least one link in A (Equation 1 of the paper).
func (t *Topology) Coverage(links *bitset.Set) *bitset.Set {
	out := bitset.New(len(t.paths))
	links.ForEach(func(i int) bool {
		out.UnionWith(t.coverage[i])
		return true
	})
	return out
}

// PathHasCorrelatedLinks reports whether the path traverses two or more links
// from the same correlation set. Such paths cannot contribute single-path
// equations to the Section-4 algorithm.
func (t *Topology) PathHasCorrelatedLinks(id PathID) bool {
	seen := make(map[int]bool, len(t.paths[id].Links))
	for _, l := range t.paths[id].Links {
		p := t.setOf[l]
		if seen[p] {
			return true
		}
		seen[p] = true
	}
	return false
}

// LinkSetHasCorrelatedLinks reports whether a set of links contains two or
// more links from the same correlation set.
func (t *Topology) LinkSetHasCorrelatedLinks(links *bitset.Set) bool {
	seen := make(map[int]bool)
	bad := false
	links.ForEach(func(i int) bool {
		p := t.setOf[i]
		if seen[p] {
			bad = true
			return false
		}
		seen[p] = true
		return true
	})
	return bad
}

// PathsThroughLink returns the IDs of paths traversing the link, ascending.
func (t *Topology) PathsThroughLink(id LinkID) []PathID {
	idx := t.coverage[id].Indices()
	out := make([]PathID, len(idx))
	for i, v := range idx {
		out[i] = PathID(v)
	}
	return out
}

// String renders a compact summary for debugging.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology{nodes:%d links:%d paths:%d sets:%d}",
		len(t.nodes), len(t.links), len(t.paths), len(t.sets))
	return b.String()
}

// Builder accumulates nodes, links, paths and correlation sets and validates
// them into an immutable Topology.
type Builder struct {
	nextNode NodeID
	links    []Link
	paths    []Path
	groups   [][]LinkID // explicit correlation groups; links absent from all groups become singletons
	err      error
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode allocates and returns a fresh node ID.
func (b *Builder) AddNode() NodeID {
	id := b.nextNode
	b.nextNode++
	return id
}

// AddNodes allocates n fresh node IDs and returns them.
func (b *Builder) AddNodes(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = b.AddNode()
	}
	return out
}

// AddLink adds a directed logical link from src to dst and returns its ID.
func (b *Builder) AddLink(src, dst NodeID, name string) LinkID {
	if src >= b.nextNode || dst >= b.nextNode || src < 0 || dst < 0 {
		b.fail(fmt.Errorf("topology: link %q references unknown node (src=%d dst=%d, have %d nodes)", name, src, dst, b.nextNode))
	}
	id := LinkID(len(b.links))
	b.links = append(b.links, Link{ID: id, Src: src, Dst: dst, Name: name})
	return id
}

// AddPath adds a measurement path traversing the given links in order and
// returns its ID.
func (b *Builder) AddPath(name string, links ...LinkID) PathID {
	id := PathID(len(b.paths))
	cp := make([]LinkID, len(links))
	copy(cp, links)
	b.paths = append(b.paths, Path{ID: id, Links: cp, Name: name})
	return id
}

// Correlate declares that the given links belong to one correlation set.
// Groups must be disjoint; links never mentioned in any group are placed in
// singleton sets.
func (b *Builder) Correlate(links ...LinkID) {
	cp := make([]LinkID, len(links))
	copy(cp, links)
	b.groups = append(b.groups, cp)
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates the accumulated definition and returns the Topology.
// Validation enforces the model of Section 2.1: paths are loop-free and
// link-contiguous, every link participates in at least one path, and the
// correlation groups form a partition.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.links) == 0 {
		return nil, errors.New("topology: no links")
	}
	if len(b.paths) == 0 {
		return nil, errors.New("topology: no paths")
	}

	t := &Topology{
		links: b.links,
		paths: b.paths,
	}
	t.nodes = make([]NodeID, b.nextNode)
	for i := range t.nodes {
		t.nodes[i] = NodeID(i)
	}

	// Validate paths and build coverage maps.
	t.coverage = make([]*bitset.Set, len(b.links))
	for i := range t.coverage {
		t.coverage[i] = bitset.New(len(b.paths))
	}
	t.pathLinks = make([]*bitset.Set, len(b.paths))
	for _, p := range b.paths {
		if len(p.Links) == 0 {
			return nil, fmt.Errorf("topology: path %q has no links", p.Name)
		}
		seen := bitset.New(len(b.links))
		for i, l := range p.Links {
			if int(l) < 0 || int(l) >= len(b.links) {
				return nil, fmt.Errorf("topology: path %q references unknown link %d", p.Name, l)
			}
			if seen.Contains(int(l)) {
				return nil, fmt.Errorf("topology: path %q crosses link %d twice (loops are not allowed)", p.Name, l)
			}
			seen.Add(int(l))
			if i > 0 {
				prev := b.links[p.Links[i-1]]
				cur := b.links[l]
				if prev.Dst != cur.Src {
					return nil, fmt.Errorf("topology: path %q is not contiguous at position %d (link %d ends at node %d, link %d starts at node %d)",
						p.Name, i, p.Links[i-1], prev.Dst, l, cur.Src)
				}
			}
			t.coverage[l].Add(int(p.ID))
		}
		t.pathLinks[p.ID] = seen
	}
	for l := range b.links {
		if t.coverage[l].IsEmpty() {
			return nil, fmt.Errorf("topology: link %d (%q) is not traversed by any path (unused links are not allowed)", l, b.links[l].Name)
		}
	}

	// Build the correlation partition.
	t.setOf = make([]int, len(b.links))
	for i := range t.setOf {
		t.setOf[i] = -1
	}
	for _, g := range b.groups {
		if len(g) == 0 {
			continue
		}
		set := bitset.New(len(b.links))
		idx := len(t.sets)
		for _, l := range g {
			if int(l) < 0 || int(l) >= len(b.links) {
				return nil, fmt.Errorf("topology: correlation group references unknown link %d", l)
			}
			if t.setOf[l] != -1 {
				return nil, fmt.Errorf("topology: link %d appears in two correlation groups (groups must be disjoint)", l)
			}
			t.setOf[l] = idx
			set.Add(int(l))
		}
		t.sets = append(t.sets, set)
	}
	// Remaining links are singletons, in ascending link order for determinism.
	for l := range b.links {
		if t.setOf[l] == -1 {
			set := bitset.New(len(b.links))
			set.Add(l)
			t.setOf[l] = len(t.sets)
			t.sets = append(t.sets, set)
		}
	}
	return t, nil
}
