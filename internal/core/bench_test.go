package core

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/benchmeta"
	"repro/internal/scenario"
)

// BenchmarkCompileLinear prices CompileLinear, whose cost is the Section-4
// selection's rank tracking, on the diurnal and worm registry scenarios
// (seed 1) with the paper's partition and the identity one. The "packed"
// arm is CompileLinear itself; the "dense" arm compiles the same structure
// with the dense Gram–Schmidt oracle tracker, measured in the same run. The
// numbers go to BENCH_compile.json at the module root.
func BenchmarkCompileLinear(b *testing.B) {
	metrics := map[string]float64{}
	for _, name := range []string{"diurnal", "worm"} {
		scn, err := scenario.BuildNamed(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		top := scn.Topology
		metrics[name+"-links"] = float64(top.NumLinks())
		metrics[name+"-paths"] = float64(top.NumPaths())
		for _, identity := range []bool{false, true} {
			plan := name + "/correlation"
			if identity {
				plan = name + "/independence"
			}
			arms := []struct {
				name    string
				compile func() error
			}{
				{"packed", func() error {
					_, err := CompileLinear(top, identity, Options{})
					return err
				}},
				{"dense", func() error {
					_, err := compileStructure(top, identity, Options{}, newDenseTracker(top.NumLinks()))
					return err
				}},
			}
			for _, arm := range arms {
				key := plan + "/" + arm.name
				b.Run(key, func(b *testing.B) {
					b.ReportAllocs()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := arm.compile(); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					metrics[key+"-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					metrics[key+"-allocs/op"] = float64(after.Mallocs-before.Mallocs) / float64(b.N)
				})
			}
			if p, d := metrics[plan+"/packed-ns/op"], metrics[plan+"/dense-ns/op"]; p > 0 && d > 0 {
				metrics[plan+"/dense-vs-packed"] = d / p
				b.Logf("%s: packed %.1f ms, dense %.1f ms (%.2f×)", plan, p/1e6, d/1e6, d/p)
			}
		}
	}
	// go test runs a package's benchmarks in the package directory.
	if err := benchmeta.WriteJSON(filepath.Join("..", "..", "BENCH_compile.json"), "BenchmarkCompileLinear", metrics); err != nil {
		b.Fatal(err)
	}
}
