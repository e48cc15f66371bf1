//go:build !linux

package serve

// yieldCPU is a no-op where sched_yield(2) is not wired up.
func yieldCPU() {}
