// Command perfbench is the repository's benchmark: one workload per
// run, end-to-end metrics from an untraced run, per-layer metrics from a
// traced run, and every output checked for correctness.
//
// Usage (from the repository root):
//
//	perfbench --workload paper-splice|paper-dist|netsim-battery|cksumd-wire \
//	          --seed N --seconds S --trace 0|1
//	perfbench --capture-golden   # rewrite golden/ from seed 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  The lines before it name
// every metric with its unit, the host and build provenance, and the
// CRC kernel each algorithm resolved to.  See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"realsum/internal/algo"
)

// setupProbes is how many fresh processes setup_s is the median of.
const setupProbes = 21

// Paths relative to the repository root, the working directory of
// every run: the seed-0 reports, and where the traced run writes its
// spans (inside the build directory, which is not committed).
var (
	goldenDir = filepath.Join("perfbench", "golden")
	traceDir  = filepath.Join(".bench_build", "trace")
)

// benchWorkers is the worker count of every timed pass: at most two,
// the host's vCPU count the load is sized for.
var benchWorkers = min(2, runtime.NumCPU())

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

// scales records every workload size in the provenance line.
var scales = map[string]float64{
	"splice": spliceScale, "dist": distScale, "dist_table6": distTable6Scale,
	"netsim": netsimScale, "wire": wireScale, "wire_k": wireK, "wire_conns": wireConns,
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 0, "root seed for every generated input (0 reproduces golden/)")
	secs := flag.Int("seconds", 10, "measurement window per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	capture := flag.Bool("capture-golden", false, "rewrite the golden reports from seed 0 at one worker, then exit")
	probe := flag.Bool("probe-setup", false, "internal: run one set-up and print the CRC kernels (a setup_s sample)")
	flag.Parse()

	if *capture {
		if err := captureGolden(); err != nil {
			fatal(err)
		}
		return
	}
	if !slices.Contains(workloadNames, *workload) {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames, ", ")))
	}
	if *probe {
		if err := probeSetup(*workload); err != nil {
			fatal(err)
		}
		return
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be ≥ 1 and --trace 0 or 1"))
	}

	prov := hostProvenance(*workload, *seed, scales)
	pj, _ := json.Marshal(prov) // strings, numbers and maps of them: cannot fail
	fmt.Printf("provenance %s\n", pj)
	setup, kernelRuns, err := measureSetup(*workload)
	if err != nil {
		fatal(fmt.Errorf("set-up probe: %w", err))
	}
	for _, line := range kernelRuns {
		fmt.Printf("setup-probe crc kernels: %s\n", line)
	}

	var res result
	if *trace == 1 {
		res, err = runTraced(*workload, *seed, prov)
	} else {
		res, err = runEndToEnd(*workload, *seed, time.Duration(*secs)*time.Second)
		if err == nil {
			res.Metrics["setup_s"] = metric{setup, "s"}
			res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		}
	}
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s = %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// probeSetup is the child side of setup_s: package init (including the
// CRC kernels' verify-and-race) has already run; the cksumd workload
// also brings its server up on loopback and down again.
func probeSetup(workload string) error {
	if workload == "cksumd-wire" {
		ws, err := startWireServer()
		if err != nil {
			return err
		}
		if err := ws.stop(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(crcKernels(algo.All()))
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measureSetup starts setupProbes fresh processes of this binary in
// probe mode and returns the median wall time from start to exit, plus
// each probe's kernel choices (the init-time race is recorded, not
// pinned, so a split result can be traced to it).
func measureSetup(workload string) (float64, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	var times []float64
	var kernels []string
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe-setup", "--workload", workload)
		cmd.Stderr = os.Stderr
		start := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		kernels = append(kernels, strings.TrimSpace(string(out)))
	}
	return median(times), kernels, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func goldenPath(workload string) string { return filepath.Join(goldenDir, workload+".txt") }

// expectedReport is a batch pass's correctness oracle: the committed
// golden at seed 0, else the same pass at one worker (every pass is
// byte-identical at any worker count), computed outside the timed
// region.
func expectedReport(ctx context.Context, workload string, seed uint64) (string, error) {
	if seed == 0 {
		b, err := os.ReadFile(goldenPath(workload))
		return string(b), err
	}
	ref, err := batchPasses[workload](ctx, seed, 1)
	return ref.Report, err
}

// captureGolden writes each batch workload's seed-0 report, computed at
// one worker and checked against the same pass at benchWorkers.
func captureGolden() error {
	ctx := context.Background()
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	for _, name := range workloadNames {
		pass, ok := batchPasses[name]
		if !ok {
			continue
		}
		w1, err := pass(ctx, 0, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		w2, err := pass(ctx, 0, benchWorkers)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if w1.Report != w2.Report {
			return fmt.Errorf("%s: report differs between 1 and %d workers", name, benchWorkers)
		}
		if err := os.WriteFile(goldenPath(name), []byte(w1.Report), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d bytes\n", goldenPath(name), len(w1.Report))
	}
	return nil
}

// runEndToEnd is the untraced run: timed passes (or wire streams) until
// the window closes, each output checked.
func runEndToEnd(workload string, seed uint64, window time.Duration) (result, error) {
	ctx := context.Background()
	if workload == "cksumd-wire" {
		return wireEndToEnd(ctx, seed, window)
	}
	want, err := expectedReport(ctx, workload, seed)
	if err != nil {
		return result{}, fmt.Errorf("expected report: %w", err)
	}
	run := batchPasses[workload]
	var durs, cpus []time.Duration
	var files, bytes, trials uint64 // per pass; every pass does the same work
	res := result{Metrics: map[string]metric{}}
	start := time.Now()
	for len(durs) == 0 || time.Since(start) < window {
		t0, c0 := time.Now(), cpuTime()
		pr, err := run(ctx, seed, benchWorkers)
		durs = append(durs, time.Since(t0))
		cpus = append(cpus, cpuTime()-c0)
		res.Attempted++
		if err != nil || pr.Report != want {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: output check failed (err=%v)\n", workload, res.Attempted, err)
		}
		files, bytes, trials = pr.Files, pr.Bytes, pr.Trials
	}
	// Rates use the median pass, so one pass slowed by a neighbour on the
	// host does not move them.
	pass := median(seconds(durs))
	res.Correct = res.Failed == 0
	res.Metrics["mb_per_s"] = metric{float64(bytes) / 1e6 / pass, "MB/s"}
	fmt.Printf("passes %d over %.3f s at %d workers; %d files, %.3f MB per pass\n", len(durs), time.Since(start).Seconds(), benchWorkers, files, float64(bytes)/1e6)
	for i := range durs {
		fmt.Printf("pass %d: %.3f s wall, %.3f s CPU\n", i+1, durs[i].Seconds(), cpus[i].Seconds())
	}
	printed("pass_s", pass, "s", "median of the passes")
	printed("files_per_s", float64(files)/pass, "1/s", "")
	if trials > 0 {
		printed("trials_per_s", float64(trials)/pass, "1/s", "")
	}
	printed("error_rate", float64(res.Failed)/float64(res.Attempted), "ratio", fmt.Sprintf("%d of %d passes", res.Failed, res.Attempted))
	return res, nil
}

// printed reports an end-to-end metric that scales with the seed's
// corpus size, so it is printed by name but not gated (see README.md).
func printed(name string, v float64, unit, note string) {
	if note != "" {
		note = " (" + note + ")"
	}
	fmt.Printf("metric %s = %.6g %s%s [not gated]\n", name, v, unit, note)
}

// wireEndToEnd is cksumd-wire's untraced run: a closed loop of
// wireConns clients against an in-process server until the window
// closes.
func wireEndToEnd(ctx context.Context, seed uint64, window time.Duration) (result, error) {
	in, err := prepareWire(seed, benchWorkers)
	if err != nil {
		return result{}, fmt.Errorf("wire inputs: %w", err)
	}
	ws, err := startWireServer()
	if err != nil {
		return result{}, err
	}
	start := time.Now()
	ops := runWireLoop(ws, in, start.Add(window), 0, nil)
	elapsed := time.Since(start)
	if err := ws.stop(); err != nil {
		return result{}, fmt.Errorf("wire server: %w", err)
	}
	if err := verifyWire(ctx, in, ops); err != nil {
		return result{}, fmt.Errorf("expected reports: %w", err)
	}
	res := result{Metrics: map[string]metric{}, Attempted: len(ops)}
	var lat []float64
	var bytes, frames, trials int64
	for _, op := range ops {
		if op.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: wire stream failed: %v\n", op.err)
		}
		if op.stats.Reply == "" {
			continue // no reply: nothing was measured
		}
		// A wrong reply still timed a full stream; it is counted above.
		lat = append(lat, op.stats.Latency.Seconds()*1e3)
		bytes += op.stats.Bytes
		frames += int64(op.stats.Frames)
		trials += int64(op.trials)
	}
	res.Correct = res.Failed == 0
	if len(lat) == 0 {
		return res, errors.New("no wire stream got a reply")
	}
	res.Metrics["mb_per_s"] = metric{float64(bytes) / 1e6 / elapsed.Seconds(), "MB/s"}
	fmt.Printf("streams %d (K=%d files, %d connections, closed loop) over %.3f s\n", len(ops), wireK, wireConns, elapsed.Seconds())
	printed("stream_p50_ms", median(lat), "ms", "first header byte written to last reply byte read")
	if tl, err := tailPercentile(lat); err == nil {
		printed("stream_tail_ms", tl.Value, "ms", tl.String())
	} else {
		fmt.Printf("stream_tail_ms unavailable: %v\n", err)
	}
	printed("files_per_s", float64(frames)/elapsed.Seconds(), "1/s", "")
	printed("trials_per_s", float64(trials)/elapsed.Seconds(), "1/s", "")
	printed("error_rate", float64(res.Failed)/float64(res.Attempted), "ratio", fmt.Sprintf("%d of %d streams", res.Failed, res.Attempted))
	return res, nil
}
