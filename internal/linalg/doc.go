// Package linalg provides the dense linear algebra needed by the tomography
// algorithms: LU solves for square systems, Householder-QR least squares for
// overdetermined systems, minimum-norm solutions for underdetermined ones,
// and an incremental orthogonal row basis used to select linearly
// independent measurement equations.
//
// Paper mapping (Ghita, Argyraki, Thiran — IMC 2010): Section 4 reduces
// inference to the log-linear system built from the single-path equations
// (Eq. 9) and pair equations (Eq. 10); this package supplies the solvers
// that internal/core applies to that system, and RowBasis implements the
// "just enough independent equations" selection the algorithm performs
// while scanning candidate paths and pairs. The GF(2) basis supports the
// Assumption-4 identifiability check of Section 3 (internal/topology).
//
// RowBasis stores each orthonormal basis row packed — the ascending indices
// of its nonzero entries and the values there — and projects a candidate
// only over those entries, bit-identical to the dense two-pass Gram–Schmidt
// (a skipped term is a product with zero). Offer computes a candidate's
// residual once and Accept appends it. Both rank trackers (RowBasis,
// GF2Basis) can Resume from the first k rows of a compiled basis in place,
// because a basis row depends only on the rows accepted before it.
//
// Everything is stdlib-only and sized for the problem at hand (up to a few
// thousand unknowns), favouring clarity and numerical robustness over BLAS-
// level performance.
package linalg
