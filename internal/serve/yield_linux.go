//go:build linux

package serve

import "syscall"

// yieldCPU hands the calling thread's CPU to the next thread queued on it,
// if any (sched_yield(2)); the calling thread runs again right after.
func yieldCPU() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
