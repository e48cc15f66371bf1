package core

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/measure"
	"repro/internal/topology"
)

// BuildEquations is the fused one-shot Section-4 selection, the oracle of
// CompileStructure + EvaluateIn: it walks the candidate stream, probing
// every row that would raise the rank (every row when UseAllEquations is
// set) and keeping it when its measured probability is usable, until |E|
// equations (3·|E| rows under UseAllEquations) are collected or candidates
// run out. Selection and probability lookup are interleaved, so a row
// dropped for a near-zero measured probability frees its slot for later
// candidates. It tracks the rank with the dense Gram–Schmidt oracle, or
// with a fresh GF(2) tracker when gf2 is set.
func BuildEquations(top *topology.Topology, src measure.Source, identity bool, opts Options, gf2 bool) (*EquationSystem, error) {
	if src.NumPaths() != top.NumPaths() {
		return nil, fmt.Errorf("core: source has %d paths, topology %d", src.NumPaths(), top.NumPaths())
	}
	nl := top.NumLinks()
	setOf := make([]int, nl)
	for k := range setOf {
		setOf[k] = k
		if !identity {
			setOf[k] = top.SetOf(topology.LinkID(k))
		}
	}
	stream, err := enumerateCandidates(top, setOf, &opts)
	if err != nil {
		return nil, err
	}

	sys := &EquationSystem{NumLinks: nl, Covered: bitset.New(nl)}
	basis := oracleTracker(nl, gf2)
	probPaths := probeFor(top, src)
	for i := range stream {
		c := &stream[i]
		links := linksOf(top, c, bitset.New(nl))
		if opts.UseAllEquations || basis.offer(links) {
			if prob := probPaths(c.pathIDs()); prob <= minProb {
				sys.SkippedZeroProb++
			} else {
				// The residual is computed again here, as the dense
				// tracker's Add did.
				if basis.offer(links) {
					basis.accept()
				}
				sys.Equations = append(sys.Equations, Equation{
					Links: links.Clone(),
					Y:     math.Log(prob),
					Paths: append([]topology.PathID{}, c.pathIDs()...),
				})
				sys.Covered.UnionWith(links)
				if c.n == 2 {
					sys.PairEqs++
				} else {
					sys.SinglePathEqs++
				}
			}
		}
		if opts.UseAllEquations && len(sys.Equations) >= 3*nl || !opts.UseAllEquations && basis.full() {
			break
		}
	}
	sys.Rank = basis.rank()
	return sys, nil
}

// probeFor returns the probability lookup for an equation's paths, routing
// single-path and pair queries through the source's fast path when it has
// one; only larger sets materialize a path bitset.
func probeFor(top *topology.Topology, src measure.Source) func(paths []topology.PathID) float64 {
	fast, hasFast := src.(measure.FastPairSource)
	return func(paths []topology.PathID) float64 {
		if hasFast {
			switch len(paths) {
			case 1:
				return fast.ProbPathGood(paths[0])
			case 2:
				return fast.ProbPairGood(paths[0], paths[1])
			}
		}
		pathSet := bitset.New(top.NumPaths())
		for _, p := range paths {
			pathSet.Add(int(p))
		}
		return src.ProbPathsGood(pathSet)
	}
}
