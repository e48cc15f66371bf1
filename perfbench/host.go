package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTimes
		for i, s := range fields[1:] {
			v, _ := strconv.ParseUint(s, 10, 64)
			// Fields 9 and 10 (guest time) are already counted in user time.
			if i < 8 {
				t.total += v
			}
			if i == 7 {
				t.steal = v
			}
		}
		return t
	}
	return cpuTimes{}
}

// stealPct is the share of all CPU time the hypervisor gave to other
// guests between two readings: a run taken under host contention shows
// it here.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMiB reads the process's high-water resident set size.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// goStats is a reading of the Go runtime's GC and allocation counters.
type goStats struct {
	gcCycles   uint32
	pauseTotal time.Duration
	allocBytes uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{gcCycles: m.NumGC, pauseTotal: time.Duration(m.PauseTotalNs), allocBytes: m.TotalAlloc}
}

// settle collects garbage and returns freed memory to the OS before a
// timed phase or a set-up, so one phase's garbage is neither charged to the
// next phase's time nor left in its resident set.
func settle() { debug.FreeOSMemory() }

// hostProbe times a fixed dependent walk over a 1 MiB random cycle, in
// milliseconds. It is printed beside each run's results: on a shared host
// the same program can run at very different speeds from one minute to the
// next, and the probe shows which speed a run was measured at.
func hostProbe() float64 {
	const n = 1 << 18
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	t0 := time.Now()
	at := uint32(0)
	for k := 0; k < 4*n; k++ {
		at = next[at]
	}
	d := time.Since(t0)
	if at == n { // never true; keeps the walk from being optimized away
		fmt.Fprintln(os.Stderr, at)
	}
	return ms(d)
}
