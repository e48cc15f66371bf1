package tomography_test

import (
	"testing"

	tomography "repro"
)

// Table-driven error-path tests for the estimators, pinning EXACT
// error strings: operators grep logs and scripts match on these messages, so
// a refactor that rewords them is a breaking change that must show up here.
func TestEstimateErrorStrings(t *testing.T) {
	top := tomography.Figure1A() // 3 paths, 4 links
	plan, err := tomography.Compile(top, tomography.PlanOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	// A source whose path count disagrees with the plan's topology.
	mismatched := tomography.NewStreaming(5)
	mismatched.Append(tomography.NewPathSet(0, 2))
	// A well-formed source for the nil-plan case.
	good := tomography.NewStreaming(top.NumPaths())
	good.Append(tomography.NewPathSet(0))

	cases := []struct {
		name      string
		estimator string
		plan      *tomography.Plan
		src       *tomography.Empirical
		wantErr   string
	}{
		{
			name:      "unknown estimator name",
			estimator: "gradient-descent",
			plan:      plan,
			src:       good,
			wantErr:   `tomography: unknown estimator "gradient-descent" (registered: [correlation independence mle theorem])`,
		},
		{
			name:      "nil plan",
			estimator: "correlation",
			plan:      nil,
			src:       good,
			wantErr:   `tomography: Estimate "correlation": nil plan (Compile the topology first)`,
		},
		{
			name:      "mismatched topology (correlation)",
			estimator: "correlation",
			plan:      plan,
			src:       mismatched,
			wantErr:   "core: source has 5 paths, topology 3",
		},
		{
			name:      "mismatched topology (independence)",
			estimator: "independence",
			plan:      plan,
			src:       mismatched,
			wantErr:   "core: source has 5 paths, topology 3",
		},
		{
			name:      "mismatched topology (theorem)",
			estimator: "theorem",
			plan:      plan,
			src:       mismatched,
			wantErr:   "core: source has 5 paths, topology 3",
		},
		{
			name:      "mismatched topology (mle)",
			estimator: "mle",
			plan:      plan,
			src:       mismatched,
			wantErr:   "mle: source has 5 paths, topology 3",
		},
		{
			name:      "nil source",
			estimator: "correlation",
			plan:      plan,
			src:       nil,
			wantErr:   `tomography: EstimateIn "correlation": nil source`,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := tomography.Estimate(tc.estimator, tc.plan, tc.src, tomography.EstimateOptions{})
			if err == nil {
				t.Fatalf("Estimate succeeded (result %+v), want error %q", res, tc.wantErr)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("error mismatch:\n got: %s\nwant: %s", err, tc.wantErr)
			}
			if res != nil {
				t.Fatal("non-nil result alongside an error")
			}
		})
	}
}
