package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's CPU time so far, user plus system. Host
// cost is always CPU time: wall time on a shared two-core box halves
// under a neighbour's load while CPU time moves a few percent.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostSample is one reading of every host-side meter; two readings
// bracket a phase.
type hostSample struct {
	cpu      float64 // seconds
	wall     time.Time
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{cpu: cpuSeconds(), wall: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}

// hostDelta is what a phase cost.
type hostDelta struct {
	cpu, wall float64 // seconds
	allocs    float64
	allocKB   float64
	gcCycles  float64
}

func (a hostSample) until(b hostSample) hostDelta {
	return hostDelta{
		cpu:      b.cpu - a.cpu,
		wall:     b.wall.Sub(a.wall).Seconds(),
		allocs:   float64(b.mallocs - a.mallocs),
		allocKB:  float64(b.bytes-a.bytes) / 1024,
		gcCycles: float64(b.gcCycles - a.gcCycles),
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// timeWaitSockets counts IPv4 TCP sockets in TIME-WAIT (state 06 in
// /proc/net/tcp). RemotePlant dials once per call, so the tcp workload
// leaves thousands behind; the count is reported so that a change to
// connection reuse shows.
func timeWaitSockets() int {
	f, err := os.Open("/proc/net/tcp")
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fs := strings.Fields(sc.Text()); len(fs) > 3 && fs[3] == "06" {
			n++
		}
	}
	return n
}

// calibrationRef is the CPU seconds the calibration work takes on the
// reference machine: the 2-core sandbox this benchmark was sized on, on
// a quiet stretch.
const calibrationRef = 8.8e-3

// machineSlowdown runs a fixed amount of the kind of work the control
// plane does most of — small allocations, string formatting, map
// inserts, a sort — and returns how many times longer it took than on
// the reference machine. It uses nothing from the repository, and it
// must not feel the program's heap either: the caller runs a full
// collection first (runtime.GC also finishes the sweep), and the
// collector is off while the loop runs, so no cycle — whose cost would
// follow the program's live heap and garbage — lands in the window.
// With the collector on and no collection first, retaining 0, 64 or
// 256 MB of small objects moved the factor 0.95 → 0.82 → 0.77; this way
// it read 0.81, 0.81, 0.77 and 0.79, 0.80, 0.82 on repeats, which is the
// machine's own wander.
//
// The shared sandbox has a fast and a slow state, a factor of 1.5 apart
// in CPU time for the same instructions, and the share of time spent in
// each wanders over minutes: over ten back-to-back 30 s runs per
// workload the raw CPU-µs per creation had an interquartile spread of
// 33–39 %, by lower quartile or by median; divided epoch by epoch by
// the mean of the two readings around the epoch, 3.5–6.5 % (README, "CPU
// time on a reference machine"). Goroutine hand-offs over channels and
// an allocation-free loop (sort, hash, map reads, pointer chase) were
// tried as the work; both follow the machine less well than the
// control plane's own mix does.
func machineSlowdown() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c0 := cpuSeconds()
	sink := 0
	for round := 0; round < 24; round++ {
		m := make(map[string]int, 256)
		keys := make([]string, 0, 1024)
		for i := 0; i < 1024; i++ {
			k := fmt.Sprintf("vm-shop-%d-%d", round, i*7919%1024)
			m[k] = i
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sink += m[k]
		}
	}
	calibrationSink = sink
	return (cpuSeconds() - c0) / calibrationRef
}

// calibrationSink keeps the compiler from dropping the work.
var calibrationSink int
