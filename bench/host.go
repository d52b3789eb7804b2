package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// A host-speed reading taken around every run, so a run on a slowed
// host can be told from a slowed program: a fixed CPU calibration loop
// timed before and after the run, the share of CPU time the hypervisor
// stole during it (/proc/stat), and the cgroup's CPU throttling
// (cpu.stat), where the host exposes them.

// hostReading is the state at the start of a run.
type hostReading struct {
	calibMS   float64
	cpu       cpuTimes
	throttled float64 // cgroup throttled microseconds, -1 if unknown
}

// cpuTimes are the machine-wide busy and stolen CPU jiffies.
type cpuTimes struct {
	total, steal float64
	ok           bool
}

func readHost() hostReading {
	return hostReading{calibMS: calibrate(), cpu: readCPUTimes(), throttled: readThrottledUS()}
}

// finish adds the reading over the run to the report: human-readable
// notes in every run, and host.* metrics in a traced one.
func (h hostReading) finish(rep *report) {
	end := calibrate()
	cpu := readCPUTimes()
	steal := -1.0
	if h.cpu.ok && cpu.ok && cpu.total > h.cpu.total {
		steal = (cpu.steal - h.cpu.steal) / (cpu.total - h.cpu.total)
	}
	rep.note("host: calibration loop %.3f ms before the run, %.3f ms after; CPU steal during the run %s; cgroup throttling %s",
		h.calibMS, end, shareOrUnknown(steal), throttleNote(h.throttled, readThrottledUS()))
	rep.layer["host.calibration_ms"] = median([]float64{h.calibMS, end})
	rep.layer["host.steal_share"] = max(steal, 0)
}

func shareOrUnknown(v float64) string {
	if v < 0 {
		return "unknown"
	}
	return strconv.FormatFloat(100*v, 'f', 2, 64) + "%"
}

func throttleNote(before, after float64) string {
	if before < 0 || after < 0 {
		return "unknown"
	}
	return strconv.FormatFloat((after-before)/1e3, 'f', 1, 64) + " ms"
}

// calibrate times a fixed integer loop five times and returns the median
// in milliseconds.
func calibrate() float64 {
	var ms []float64
	x := uint64(88172645463325252)
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	if x == 0 { // keeps the loop from being optimised away
		ms = append(ms, 0)
	}
	return median(ms)
}

// readCPUTimes reads the aggregate cpu line of /proc/stat.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// readThrottledUS reads the cgroup's throttled time in microseconds
// (cgroup v2, then v1), or -1.
func readThrottledUS() float64 {
	for _, c := range []struct {
		path, key string
		scale     float64
	}{
		{"/sys/fs/cgroup/cpu.stat", "throttled_usec", 1},
		{"/sys/fs/cgroup/cpu/cpu.stat", "throttled_time", 1e-3},
	} {
		data, err := os.ReadFile(c.path)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, " "); ok && k == c.key {
				if n, err := strconv.ParseFloat(v, 64); err == nil {
					return n * c.scale
				}
			}
		}
	}
	return -1
}
