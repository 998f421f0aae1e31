package main

// Steal-corrected host time. On a virtual machine the hypervisor runs
// other guests on this guest's CPUs: /proc/stat counts that time as
// "steal", and the guest's own clocks and CPU-time counters run on
// through it. On the shared 2-CPU host this benchmark was tuned on, steal
// swung between 0 and 30% of each CPU within seconds and moved the
// wall-clock throughput of one run by as much, while a fixed harness
// loop timed between the workload's units stayed within 5%. ops_per_s is
// therefore measured over chunks of about half a second, each chunk's
// host time is reduced by the share of it the CPUs doing the work had
// stolen, and the median chunk is reported. Where /proc/stat cannot be
// read no correction is made.

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuStat is one reading of the per-CPU tick counters, with this
// process's CPU time and the wall clock.
type cpuStat struct {
	busy, steal []uint64
	procNS      int64
	at          time.Time
}

func readCPUStat() cpuStat {
	st := cpuStat{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		st.procNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return st
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		// Per-CPU lines only: "cpu0 user nice system idle iowait irq
		// softirq steal ...".
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		var v [8]uint64
		for i := range v {
			v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
		}
		st.busy = append(st.busy, v[0]+v[1]+v[2]+v[5]+v[6])
		st.steal = append(st.steal, v[7])
	}
	return st
}

// stolenFrac is the share of the wall time between two readings that the
// process lost to steal: the CPUs' steal share of their runnable time
// (each CPU's steal/(busy+steal), weighted by how busy it was) times the
// number of CPUs the process kept busy, capped at the simulator's shard
// count — a stolen CPU also stalls the other shards at the next window
// barrier, while the garbage collector's work on another CPU stalls
// nothing.
func stolenFrac(a, b cpuStat, shards int) float64 {
	if len(a.busy) == 0 || len(a.busy) != len(b.busy) {
		return 0
	}
	var num, den float64
	for i := range a.busy {
		busy := float64(b.busy[i] - a.busy[i])
		steal := float64(b.steal[i] - a.steal[i])
		if busy == 0 {
			continue
		}
		num += busy * steal / (busy + steal)
		den += busy
	}
	wall := b.at.Sub(a.at).Nanoseconds()
	if den == 0 || wall <= 0 {
		return 0
	}
	used := float64(b.procNS-a.procNS) / float64(wall)
	return min(0.9, num/den*max(1, min(used, float64(shards))))
}
