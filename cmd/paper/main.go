// Command paper regenerates every table and figure in the paper's
// evaluation over the synthetic corpora, printing each in the paper's
// layout.
//
// Usage:
//
//	paper [-scale 1.0] [-run table1,figure2,...] [-workers N] [-seed S] [-progress]
//	paper -netsim [-scale 1.0] [-workers N] [-seed S]
//	paper -census [-scale 1.0] [-workers N] [-seed S]
//	paper -benchcensusjson BENCH_census.json [-scale 0.05]
//	paper -benchjson BENCH_splice.json [-scale 0.05] [-benchiters 3]
//	paper -benchdistjson BENCH_dist.json [-scale 0.05] [-benchiters 3]
//	paper -benchnetsimjson BENCH_netsim.json [-scale 0.05] [-benchiters 3] [-placement e2e,segment]
//	paper -benchalgojson BENCH_algo.json [-benchiters 3] [-kernel stdlib|slicing8|scalar|auto]
//	paper ... [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// With no -run flag every experiment runs in paper order.  The -scale
// flag multiplies the corpus sizes (1.0 ≈ a few MB per file system; the
// paper's originals were GBs — scale up if you have the minutes).
// -progress prints live throughput to stderr; -workers bounds per-pass
// parallelism (outputs are byte-identical at any worker count).
// Interrupt (Ctrl-C) cancels the run between files.
//
// -seed is the single root seed behind every randomized pass: corpus
// generation, the §4.6 local any-cells sampling, the end-to-end loss
// runs and the netsim fault-injection trials all derive their RNG
// streams from it.  The default 0 reproduces the historical per-pass
// seeds, so committed goldens and EXPERIMENTS.md correspond to -seed 0;
// any other value reshapes every corpus and fault pattern coherently
// while preserving worker-count independence.
//
// -netsim runs only the Monte Carlo fault-injection pipeline (§7's
// alternative error models): corpus files ride TCP/IPv4 (and
// UDP + IP fragmentation) inside AAL5/ATM cells through cell-loss
// channels at a matched 1% average rate (i.i.d. drop, a Gilbert–Elliott
// two-state chain, geometric burst-of-cells drops), bit-flip,
// solid-burst, reorder, misinsertion and cell-duplication channels, and
// every registry algorithm is scored on the corrupted deliveries under
// both checksum placements (end-to-end over the PDU and per TCP
// segment, with a header-vs-trailer position contrast for the TCP sum).
// The report includes i.i.d.-vs-correlated loss and
// end-to-end-vs-per-segment placement contrast sections.
//
// -census runs the polynomial-selection census (internal/census): the
// analytic lane computes each CRC candidate's order-of-x, weight-2/3
// spectrum and uniform-assumption P_ud in gf2poly algebra, the
// injection lane replays the netsim fault battery over the corpus
// scoring the whole slate — IEEE, Castagnoli, Koopman's search winners
// and the 5G NR family — and the report contrasts the two rankings,
// calling out any inversion explicitly.  (This is distinct from
// -run census, the byte-value data census of the corpus itself.)
// -benchcensusjson writes the same run as one JSON record per
// candidate, carrying both lanes' numbers.
//
// -benchjson times the Table 1–3 splice simulations instead of printing
// tables, writing ns/op, MB/s and allocs/op records that seed the
// repository's performance trajectory.  -benchdistjson does the same
// for the distribution passes (Figures 2–3, Tables 4–5), at one worker
// and at GOMAXPROCS workers so the records carry the parallel speedup.
// -benchalgojson times every registry algorithm's one-shot checksum at
// cell, MTU and bulk sizes, recording the selected CRC kernel and its
// speedup over the slicing-by-8 baseline.
//
// -kernel pins the CRC bulk engine (stdlib, slicing8, scalar, or auto)
// for every table the run builds, overriding the fixed order (the first
// of stdlib, slicing8, scalar that verifies against the scalar oracle)
// — the reproducibility knob for comparing kernels on the same
// hardware.
//
// -cpuprofile and -memprofile work with every mode: the first records a
// CPU profile of the whole run, the second a heap profile taken when the
// run ends, both in the runtime/pprof format `go tool pprof` reads.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"realsum/internal/algo"
	"realsum/internal/crc"
	"realsum/internal/experiments"
	"realsum/internal/netsim"
	"realsum/internal/scenario"
	"realsum/internal/sim"
)

func main() { os.Exit(paperMain()) }

// paperMain runs the command and returns its exit status, so deferred
// work such as writing the profiles runs before the process exits.
func paperMain() (code int) {
	scale := flag.Float64("scale", 1.0, "corpus scale factor")
	run := flag.String("run", "", "comma-separated experiments (default: all): table1..table10, figure2, figure3, effectivebits, ablations, pathological")
	list := flag.Bool("list", false, "list experiment names and exit")
	workers := flag.Int("workers", 0, "parallel workers per pass (default GOMAXPROCS; output is identical at any count)")
	seed := flag.Uint64("seed", 0, "root seed for every randomized pass: corpus generation, local any-cells sampling, end-to-end loss and netsim trials all derive from it (0 = the historical defaults the committed goldens use)")
	netsimOnly := flag.Bool("netsim", false, "run only the netsim fault-injection pass (shorthand for -run netsim)")
	censusOnly := flag.Bool("census", false, "run the polynomial-selection census: analytic uniform-assumption P_ud vs injected miss rate over the measured corpus for the CRC candidate slate (IEEE, Castagnoli, Koopman, 5G NR), then exit")
	benchcensusjson := flag.String("benchcensusjson", "", "run the polynomial census and write one record per candidate (uniform-lane algebra vs measured-corpus miss rates and ranks) to this file (e.g. BENCH_census.json), then exit")
	progress := flag.Bool("progress", false, "print live throughput (files, MB, MB/s) to stderr while experiments run")
	benchjson := flag.String("benchjson", "", "time the Table 1–3 splice simulations and write ns/op, MB/s and allocs/op records to this file (e.g. BENCH_splice.json), then exit")
	benchdistjson := flag.String("benchdistjson", "", "time the Figure 2–3 / Table 4–5 distribution passes and write records (incl. parallel speedup) to this file (e.g. BENCH_dist.json), then exit")
	benchnetsimjson := flag.String("benchnetsimjson", "", "time the netsim fault-injection pipeline per (fault model × checksum placement) and write trials/sec, MB/s and allocs/trial records to this file (e.g. BENCH_netsim.json), then exit")
	placement := flag.String("placement", "", "comma-separated checksum placements for -benchnetsimjson (default: all of "+strings.Join(netsim.PlacementNames(), ",")+")")
	benchalgojson := flag.String("benchalgojson", "", "time every registry algorithm's one-shot checksum at cell/MTU/bulk sizes and write ns/op, GB/s, allocs/op and kernel-speedup records to this file (e.g. BENCH_algo.json), then exit")
	kernel := flag.String("kernel", "", "force the CRC bulk kernel for the whole run (one of "+strings.Join(crc.KernelNames(), ", ")+", or auto; default: the first of stdlib, slicing8, scalar that verifies)")
	benchIters := flag.Int("benchiters", 3, "iterations per -benchjson/-benchdistjson record")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile, taken after the run, to this file (inspect with go tool pprof)")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "paper: %v\n", err)
			code = 1
		}
	}()

	if *kernel != "" {
		// SetCRCKernel repoints (and validates against) the registry
		// algorithms built at init; the environment variable carries the
		// choice to every table the experiments construct afterwards.
		if err := algo.SetCRCKernel(*kernel); err != nil {
			fmt.Fprintf(os.Stderr, "paper: %v\n", err)
			return 2
		}
		os.Setenv(crc.KernelEnv, *kernel)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *benchjson != "" || *benchdistjson != "" || *benchnetsimjson != "" || *benchalgojson != "" || *benchcensusjson != "" {
		if *benchjson != "" {
			if err := runBenchJSON(ctx, *benchjson, *scale, *benchIters); err != nil {
				fmt.Fprintf(os.Stderr, "paper: benchjson: %v\n", err)
				return 1
			}
		}
		if *benchdistjson != "" {
			if err := runBenchDistJSON(ctx, *benchdistjson, *scale, *benchIters); err != nil {
				fmt.Fprintf(os.Stderr, "paper: benchdistjson: %v\n", err)
				return 1
			}
		}
		if *benchnetsimjson != "" {
			placements, err := scenario.ParsePlacements(*placement)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paper: %v\n", err)
				return 2
			}
			if err := runBenchNetsimJSON(ctx, *benchnetsimjson, *scale, *seed, *benchIters, placements); err != nil {
				fmt.Fprintf(os.Stderr, "paper: benchnetsimjson: %v\n", err)
				return 1
			}
		}
		if *benchalgojson != "" {
			if err := runBenchAlgoJSON(*benchalgojson, *benchIters); err != nil {
				fmt.Fprintf(os.Stderr, "paper: benchalgojson: %v\n", err)
				return 1
			}
		}
		if *benchcensusjson != "" {
			if err := runBenchCensusJSON(ctx, *benchcensusjson, *scale, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "paper: benchcensusjson: %v\n", err)
				return 1
			}
		}
		return 0
	}

	if *censusOnly {
		var prog *sim.Progress
		if *progress {
			prog = &sim.Progress{}
			defer startProgress(prog)()
		}
		if err := runCensus(ctx, *scale, *seed, *workers, prog); err != nil {
			fmt.Fprintf(os.Stderr, "paper: census: %v\n", err)
			return 1
		}
		return 0
	}

	names := []string{
		"table1", "table2", "table3", "figure2", "figure3", "table4",
		"table5", "table6", "table7", "table8", "table9", "table10",
		"effectivebits", "ablations", "pathological", "endtoend", "adler", "census", "locality", "fragswap",
		"netsim",
	}
	if *list {
		fmt.Println(strings.Join(names, "\n"))
		return 0
	}

	want := map[string]bool{}
	if *netsimOnly {
		*run = "netsim"
	}
	if *run == "" {
		for _, n := range names {
			want[n] = true
		}
	} else {
		for _, n := range strings.Split(*run, ",") {
			want[strings.TrimSpace(strings.ToLower(n))] = true
		}
	}

	cfg := experiments.Config{Scale: *scale, Workers: *workers, Seed: *seed, Ctx: ctx}
	if *progress {
		prog := &sim.Progress{}
		cfg.Progress = prog
		defer startProgress(prog)()
	}
	step := func(name string, fn func() string) {
		if !want[name] {
			return
		}
		start := time.Now()
		out := fn()
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	// Tables 1–3 and the effective-bits computation share one big run.
	needT123 := want["table1"] || want["table2"] || want["table3"] || want["effectivebits"]
	if needT123 {
		start := time.Now()
		results := experiments.Tables123(cfg)
		fmt.Fprintf(os.Stderr, "[tables 1-3 simulation done in %v]\n", time.Since(start).Round(time.Millisecond))
		if want["table1"] {
			fmt.Println(experiments.Table1Report(results))
		}
		if want["table2"] {
			fmt.Println(experiments.Table2Report(results))
		}
		if want["table3"] {
			fmt.Println(experiments.Table3Report(results))
		}
		if want["effectivebits"] {
			fmt.Println(experiments.EffectiveBitsReport(experiments.EffectiveBits(results)))
		}
	}

	step("figure2", func() string { return experiments.Figure2Report(experiments.Figure2(cfg)) })
	step("figure3", func() string { return experiments.Figure3Report(experiments.Figure3(cfg)) })
	step("table4", func() string { return experiments.Table4Report(experiments.Table4(cfg)) })
	step("table5", func() string { return experiments.Table5Report(experiments.Table5(cfg)) })
	step("table6", func() string { return experiments.Table6Report(experiments.Table6(cfg)) })
	step("table7", func() string {
		plain, comp := experiments.Table7(cfg)
		return experiments.Table7Report(plain, comp)
	})
	step("table8", func() string { return experiments.Table8Report(experiments.Table8(cfg)) })
	step("table9", func() string { return experiments.Table9Report(experiments.Table9(cfg)) })
	step("table10", func() string { return experiments.Table10Report(experiments.Table10(cfg)) })
	step("ablations", func() string { return experiments.AblationsReport(experiments.Ablations(cfg)) })
	step("pathological", func() string { return experiments.PathologicalReport(experiments.Pathological(cfg)) })
	step("endtoend", func() string { return experiments.EndToEndReport(experiments.EndToEnd(cfg)) })
	step("adler", func() string { return experiments.AdlerReport(experiments.AdlerComparison(cfg)) })
	step("census", func() string { return experiments.DataCensusReport(experiments.DataCensus(cfg)) })
	step("locality", func() string { return experiments.LocalityReport(experiments.Locality(cfg)) })
	step("fragswap", func() string { return experiments.FragSwapReport(experiments.FragSwap(cfg)) })
	step("netsim", func() string { return experiments.NetSimReport(experiments.NetSim(cfg)) })
	return 0
}

// startProgress prints cumulative throughput to stderr every 2 seconds
// until the returned stop function runs.
func startProgress(p *sim.Progress) (stopFn func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		start := time.Now()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				files, bytes := p.Files(), p.Bytes()
				el := time.Since(start).Seconds()
				fmt.Fprintf(os.Stderr, "[progress: %d files, %.1f MB, %.1f MB/s]\n",
					files, float64(bytes)/1e6, float64(bytes)/1e6/el)
			}
		}
	}()
	return func() { close(done) }
}
