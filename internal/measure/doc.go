// Package measure turns snapshot observations into the probability
// estimates the tomography algorithms consume, and provides exact
// (closed-form) counterparts computed directly from a congestion model for
// validation.
//
// Two query interfaces cover the two algorithm families:
//
//   - Source supplies P(a set of paths is all-good) — the only measurement
//     the practical Section-4 algorithm needs: the left-hand sides of the
//     single-path equations (Eq. 9) and pair equations (Eq. 10) are
//     logarithms of exactly these probabilities.
//   - PatternSource supplies P(the congested-path set is exactly Q) — the
//     finer-grained measurement the Appendix-A theorem algorithm needs to
//     solve Eq. 18.
//
// FastPairSource is an optional third interface: an O(1)-amortized route
// for the single-path and path-pair queries that dominate equation
// building, bypassing path-set materialization entirely.
//
// Empirical estimates all three from columnar observations on one column
// store, segstore: the immutable chunks of a finished netsim record, or
// the chunked segstore.TieredStore of a streaming estimator or sliding
// window. Each query is an OR of bit columns plus a popcount rather than a
// scan over row-major snapshots, and repeated queries hit per-path,
// per-pair, and per-set memo caches. Construct it with NewEmpirical over a finished netsim.Record, or
// with NewStreaming and Append for online estimation — the pattern
// histogram is maintained incrementally, so estimates can be queried
// mid-stream and are always identical to a one-shot batch over the same
// snapshots.
//
// Exact computes the same quantities in closed form from a congestion
// model, which is how the tests separate estimation error from algorithmic
// error.
package measure
