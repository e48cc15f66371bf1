package core

import "repro/internal/topology"

// SolverKind identifies how the final linear system was solved.
type SolverKind string

const (
	// SolverSquare: the system reached full rank and was solved exactly.
	SolverSquare SolverKind = "square"
	// SolverL1: the system was underdetermined and completed by L1-norm
	// minimization (basis pursuit with x ≤ 0), per Section 4.
	SolverL1 SolverKind = "l1"
	// SolverMinNorm: L1 LP failed or was too large; minimum-L2-norm
	// completion was used instead.
	SolverMinNorm SolverKind = "min-norm"
	// SolverLeastSquares: overdetermined mode (UseAllEquations ablation).
	SolverLeastSquares SolverKind = "least-squares"
)

// Result is the output of a tomography run.
type Result struct {
	// CongestionProb[k] is the inferred P(Xek = 1) for every link.
	CongestionProb []float64
	// LogGoodProb[k] is the underlying solution x_k = log P(Xek = 0).
	LogGoodProb []float64
	// System is the equation system that produced the result.
	System *EquationSystem
	// Solver reports which completion strategy ran.
	Solver SolverKind
}

// Options tunes the practical algorithms.
type Options struct {
	// MinProb and MaxPairCandidates are forwarded to BuildEquations.
	MinProb           float64
	MaxPairCandidates int
	// MaxLPSize bounds the number of unknowns for the exact L1 simplex; above
	// it the min-norm completion is used (default 600).
	MaxLPSize int
	// UseAllEquations switches to an overdetermined formulation: gather up to
	// 3·|E| admissible equations (not just |E| independent ones) and solve by
	// least squares. Off by default — the paper's algorithm forms "just
	// enough" equations. Exposed for the solver ablation benchmark.
	UseAllEquations bool
	// DisablePairs skips pair equations (the "pairs off" ablation).
	DisablePairs bool
	// ForceMinNorm skips the L1 LP for underdetermined systems and uses the
	// minimum-L2-norm completion directly (solver ablation).
	ForceMinNorm bool
	// PathFilter restricts equation formation to selected paths (see
	// BuildOptions.PathFilter).
	PathFilter func(topology.PathID) bool
}

func (o *Options) fill() {
	if o.MaxLPSize <= 0 {
		o.MaxLPSize = 600
	}
	if o.MinProb <= 0 {
		o.MinProb = 1e-9
	}
	if o.MaxPairCandidates <= 0 {
		o.MaxPairCandidates = 200000
	}
}

// Normalized returns the options with every unset field replaced by its
// default — the canonical form, so zero values and explicit defaults
// compare equal (plan memoization relies on this).
func (o Options) Normalized() Options {
	o.fill()
	return o
}
