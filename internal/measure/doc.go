// Package measure turns snapshot observations into the probability
// estimates the tomography algorithms consume, and provides exact
// (closed-form) counterparts computed directly from a congestion model for
// validation.
//
// Two query interfaces cover the two kinds of measurement the estimators
// read:
//
//   - Source supplies the single-path and path-pair good-frequencies
//     P(Pi good) and P(Pi and Pj good) — the left-hand sides of the
//     Section-4 single-path (Eq. 9) and pair (Eq. 10) equations, and the
//     observations of the composite-likelihood estimator. PrimePairs hands
//     the source an estimate's whole pair query set up front, so that one
//     cache-blocked pass over the columns resolves every pair.
//   - PatternSource supplies P(the congested-path set is exactly Q) — the
//     finer-grained measurement the Appendix-A theorem algorithm needs to
//     solve Eq. 18.
//
// Empirical implements both from columnar observations on one column
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
