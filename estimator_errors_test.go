package tomography_test

import (
	"testing"

	tomography "repro"
)

// Table-driven error-path tests for the estimator registry, pinning EXACT
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
		src       tomography.Source
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
			name:      "source without pattern probabilities (theorem)",
			estimator: "theorem",
			plan:      plan,
			src:       plainSource{numPaths: top.NumPaths()},
			wantErr:   "tomography: the theorem estimator needs exact congestion-pattern probabilities (measure.PatternSource); tomography_test.plainSource does not provide them",
		},
		{
			name:      "source without pair frequencies (mle)",
			estimator: "mle",
			plan:      plan,
			src:       plainSource{numPaths: top.NumPaths()},
			wantErr:   "tomography: the mle estimator needs per-path and per-pair good-frequencies (FastPairSource); tomography_test.plainSource does not provide them",
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

// TestRegisterEstimatorPanics pins the registration-time misuse panics
// (estimator wiring is a program-initialization concern, like database/sql
// drivers).
func TestRegisterEstimatorPanics(t *testing.T) {
	assertPanicMessage := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic, want %q", name, want)
			}
			if msg, ok := r.(string); !ok || msg != want {
				t.Fatalf("%s: panic %v, want %q", name, r, want)
			}
		}()
		fn()
	}
	assertPanicMessage("duplicate registration",
		"tomography: RegisterEstimator called twice for correlation",
		func() { tomography.RegisterEstimator(fakeEstimator{name: "correlation"}) })
	assertPanicMessage("empty name",
		"tomography: RegisterEstimator with empty name",
		func() { tomography.RegisterEstimator(fakeEstimator{name: ""}) })
}

// fakeEstimator is a registry probe that must never actually run.
type fakeEstimator struct{ name string }

func (f fakeEstimator) Name() string { return f.name }
func (f fakeEstimator) EstimateIn(*tomography.Workspace, *tomography.Plan, tomography.Source, tomography.EstimateOptions) (*tomography.EstimateResult, error) {
	panic("fakeEstimator must not run")
}
