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

// Options tunes the practical algorithms. The zero value is the paper's
// algorithm.
type Options struct {
	// UseAllEquations switches to an overdetermined formulation: gather up to
	// 3·|E| admissible equations (not just |E| independent ones) and solve by
	// least squares. Off by default — the paper's algorithm forms "just
	// enough" equations. Exposed for the solver ablation benchmark.
	UseAllEquations bool
	// DisablePairs skips the pair-equation step (Eq. 10) entirely — the
	// "pairs off" ablation quantifying how much the two-path observations
	// contribute to identifiability.
	DisablePairs bool
	// ForceMinNorm skips the L1 LP for underdetermined systems and uses the
	// minimum-L2-norm completion directly (solver ablation).
	ForceMinNorm bool
	// PathFilter, when non-nil, restricts equation formation to paths for
	// which it returns true (e.g. a training split for indirect validation).
	PathFilter func(topology.PathID) bool
}

const (
	// minProb is the smallest usable measured probability: an observation
	// at or below it is dropped from the system.
	minProb = 1e-9
	// maxPairCandidates caps how many pair candidates the enumeration
	// examines.
	maxPairCandidates = 200000
	// maxLPSize bounds the number of unknowns for the exact L1 simplex;
	// above it the min-norm completion is used.
	maxLPSize = 600
	// gf2RankThreshold: above this many links, rank tracking switches from
	// floating-point Gram–Schmidt to GF(2) XOR elimination, which is
	// dramatically faster and sound (GF(2)-independent ⇒ ℚ-independent) at
	// the cost of occasionally under-collecting an equation.
	gf2RankThreshold = 600
)
