// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator from a seed, checks its outputs against a
// reference computed independently of the code under test, and prints
// its metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload tsi-stream --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, taken with all tracing off.
// --trace 1 runs the same workload under a CPU profile with pprof labels
// for its set-up, issue and run phases, and prints the per-layer metrics:
// a host-time ledger per repo module, the program's own counters per op,
// the host-time overhead of the simulator's own trace (attached for a
// short segment after the timed phase, whose modelled per-resource
// profile goes to stderr), and isolated timings of the hot layers' public
// functions as a cross-check of the ledger.
//
// --seconds sets the op budget, not a deadline: the timed phase runs
// seconds × the workload's nominal rate (calibrated to last about that
// long on a 2-CPU Xeon host), so every virtual-time metric is a pure
// function of (workload, seed, seconds) and a host-only change leaves it
// bit-identical.
//
// Each run is one process per workload, so peak RSS belongs to that
// workload. Reference runs (the interp engine, or one shard) and the
// repeated set-ups behind setup_s run in child processes of the same
// binary (--role ref, --role setup), one at a time.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many set-ups (this process plus children) the
// reported setup_s is the median of.
const setupRepeats = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// reference selects the workload's reference configuration (the
	// interp engine or a single shard) instead of the measured one.
	reference bool
}

func main() {
	var cfg config
	var traceFlag int
	var role string
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "op budget in nominal seconds of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&role, "role", "main", "internal: main, setup or ref")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg, role); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, role string) error {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	switch role {
	case "setup":
		start := time.Now()
		var jitNS int64
		if _, err := wl.setup(cfg, &jitNS); err != nil {
			return err
		}
		return printJSON(map[string]float64{"setup_s": time.Since(start).Seconds()})
	case "ref":
		cfg.reference = true
		m, err := measure(wl, cfg, nil)
		if err != nil {
			return err
		}
		return printJSON(refResult{Digests: m.digests, MakespanPS: int64(m.makespan)})
	case "main":
	default:
		return fmt.Errorf("unknown role %q", role)
	}

	fmt.Println("host:", hostFingerprint())
	var ref *refResult
	if wl.needsRef {
		ref = new(refResult)
		if err := child(cfg, "ref", ref); err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
	}
	var setups []float64
	if !cfg.trace {
		for i := 1; i < setupRepeats; i++ {
			var out map[string]float64
			if err := child(cfg, "setup", &out); err != nil {
				return fmt.Errorf("set-up run: %w", err)
			}
			setups = append(setups, out["setup_s"])
		}
	}
	m, err := measure(wl, cfg, ref)
	if err != nil {
		return err
	}
	for _, p := range m.problems {
		fmt.Fprintln(os.Stderr, "check:", p)
	}
	out := result{Correct: len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		m.perLayer(out.Metrics)
	} else {
		m.endToEnd(out.Metrics, median(append(setups, m.setupS)))
	}
	return printJSON(out)
}

// refResult is what a reference child reports: the workload's output
// digests and its modelled makespan.
type refResult struct {
	Digests    []uint64 `json:"digests"`
	MakespanPS int64    `json:"makespan_ps"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// child runs this binary in another role on the same workload and seed
// and decodes the JSON on the last line of its output into out. It waits
// for the child to end before returning.
func child(cfg config, role string, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--role", role)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	return json.Unmarshal([]byte(lines[len(lines)-1]), out)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// hostFingerprint identifies the host a result was measured on.
func hostFingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	})
	return string(b)
}

// peakRSSMB is the peak resident set of this process (children excluded).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// splitmix64 derives independent input streams from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed maps the run seed and a stream name to a generator seed.
func deriveSeed(seed int64, stream string) int64 {
	h := uint64(seed)
	for _, c := range []byte(stream) {
		h = splitmix64(h ^ uint64(c))
	}
	return int64(splitmix64(h) >> 1)
}

// writeU64 feeds v to a digest.
func writeU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
