package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"realsum/internal/census"
	"realsum/internal/corpus"
	"realsum/internal/experiments"
	"realsum/internal/netsim"
	"realsum/internal/scenario"
	"realsum/internal/sim"
)

// Workload sizes.  Each is fixed here so seed 0 reproduces the goldens
// in golden/; see README.md for why each was chosen.
const (
	// spliceScale scales every profile of Tables 1–3 and 7–10: ~10 MB
	// over the sixteen systems, whose total varies ~6% across seeds.
	spliceScale = 0.2
	// distScale scales smeg:/u1 for Figures 2–3 and Tables 4–5: at 0.25
	// the single-cell support is ~13k values and tracks the corpus bytes
	// (±6% across seeds), so the convolution-bound MB/s varies little
	// with the seed, and a 15 s window holds two or three passes.
	distScale = 0.25
	// distTable6Scale scales Table 6's four systems, which add twelve
	// convolutions; kept small so they stay a minority of the pass.
	distTable6Scale = 0.05
	// netsimScale is cmd/paper's -scale for the -netsim passes (TCP at a
	// quarter of it, UDP at a tenth) and for the census corpus.
	netsimScale = 2.0
	// wireProfile, wireScale and wireK shape cksumd-wire: each stream
	// carries wireK consecutive files of the scaled SICS /src1 corpus,
	// over wireConns concurrent connections in a closed loop.
	wireProfile = "sics.se:/src1"
	wireScale   = 8.0
	wireK       = 16
	wireConns   = 2
	// wireStreamWorkers is each stream's engine pool size: two
	// connections × one worker keeps the load at two workers.
	wireStreamWorkers = 1
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-splice", "paper-dist", "netsim-battery", "cksumd-wire"}

// passResult is one batch pass: its rendered report (the correctness
// oracle's input) and the work it did.
type passResult struct {
	Report string
	Files  uint64 // corpus files the engines processed, regenerations included
	Bytes  uint64
	Trials uint64 // netsim fault-injection trials (netsim-battery only)
}

// batchPass runs one full pass of a batch workload at the given worker
// count through the experiments / scenario / census entry points.
type batchPass func(ctx context.Context, seed uint64, workers int) (passResult, error)

var batchPasses = map[string]batchPass{
	"paper-splice":   paperSplicePass,
	"paper-dist":     paperDistPass,
	"netsim-battery": netsimBatteryPass,
}

// protect turns an experiments panic (their error path) into an error.
func protect(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pass panicked: %v", r)
		}
	}()
	fn()
	return nil
}

// paperSplicePass renders Tables 1–3 (AAL5 CRC on) and 7–10.
func paperSplicePass(ctx context.Context, seed uint64, workers int) (passResult, error) {
	prog := &sim.Progress{}
	cfg := experiments.Config{Scale: spliceScale, Workers: workers, Seed: seed, Progress: prog, Ctx: ctx}
	var parts []string
	err := protect(func() {
		t123 := experiments.Tables123(cfg)
		parts = append(parts,
			experiments.Table1Report(t123),
			experiments.Table2Report(t123),
			experiments.Table3Report(t123))
		plain, comp := experiments.Table7(cfg)
		parts = append(parts,
			experiments.Table7Report(plain, comp),
			experiments.Table8Report(experiments.Table8(cfg)),
			experiments.Table9Report(experiments.Table9(cfg)),
			experiments.Table10Report(experiments.Table10(cfg)))
	})
	return passResult{Report: strings.Join(parts, "\n"), Files: prog.Files(), Bytes: prog.Bytes()}, err
}

// paperDistPass renders Figures 2–3 and Tables 4–6.
func paperDistPass(ctx context.Context, seed uint64, workers int) (passResult, error) {
	prog := &sim.Progress{}
	cfg := experiments.Config{Scale: distScale, Workers: workers, Seed: seed, Progress: prog, Ctx: ctx}
	cfg6 := cfg
	cfg6.Scale = distTable6Scale
	var parts []string
	err := protect(func() {
		parts = append(parts,
			experiments.Figure2Report(experiments.Figure2(cfg)),
			experiments.Figure3Report(experiments.Figure3(cfg)),
			experiments.Table4Report(experiments.Table4(cfg)),
			experiments.Table5Report(experiments.Table5(cfg)),
			experiments.Table6Report(experiments.Table6(cfg6)))
	})
	return passResult{Report: strings.Join(parts, "\n"), Files: prog.Files(), Bytes: prog.Bytes()}, err
}

// netsimScenarios are cmd/paper -netsim's three passes at netsimScale,
// declared as the same scenario.Scenario values experiments.NetSim runs.
func netsimScenarios(seed uint64, workers int) (tcp, lz, udp scenario.Scenario) {
	profile := corpus.StanfordU1().Name
	tcp = scenario.Scenario{
		Name: "paper-netsim-tcp", Profile: profile, Scale: netsimScale * 0.25,
		Seed: seed, Workers: workers, Retrans: true,
	}
	lz = tcp
	lz.Name = "paper-netsim-tcp-lz"
	lz.Compress = true
	lz.Retrans = false
	udp = scenario.Scenario{
		Name: "paper-netsim-udpfrag", Profile: profile, Scale: netsimScale * 0.1,
		Mode: "udpfrag", Channels: []string{"bitflip", "burst", "reorder", "misinsert"},
		Seed: seed, Workers: workers,
	}
	return tcp, lz, udp
}

// censusWalker is cmd/paper -census's corpus at netsimScale.
func censusWalker(seed uint64) corpus.Walker {
	p := corpus.StanfordU1().Scale(netsimScale)
	p.Seed ^= seed
	return p.Build()
}

// netsimReport renders the -netsim report plus the census pin lines.
func netsimReport(tcp, lz, udp *netsim.Tally, cen *census.Result) string {
	return experiments.NetSimReport(experiments.NetSimData{TCP: tcp, TCPLZ: lz, UDP: udp}) +
		"\n" + strings.Join(cen.PinLines(), "\n") + "\n"
}

func tallyTrials(ts ...*netsim.Tally) uint64 {
	var n uint64
	for _, t := range ts {
		for _, c := range t.Channels {
			n += c.Trials
		}
	}
	return n
}

// netsimBatteryPass runs the -netsim scenario set, then the census.
func netsimBatteryPass(ctx context.Context, seed uint64, workers int) (passResult, error) {
	prog := &sim.Progress{}
	tcpS, lzS, udpS := netsimScenarios(seed, workers)
	var tallies [3]*netsim.Tally
	for i, sc := range []scenario.Scenario{tcpS, lzS, udpS} {
		t, err := sc.Run(ctx, prog)
		if err != nil {
			return passResult{}, fmt.Errorf("%s: %w", sc.Name, err)
		}
		tallies[i] = t
	}
	cen, err := census.Run(ctx, census.Config{Walker: censusWalker(seed), Seed: seed, Workers: workers, Progress: prog})
	if err != nil {
		return passResult{}, fmt.Errorf("census: %w", err)
	}
	return passResult{
		Report: netsimReport(tallies[0], tallies[1], tallies[2], cen),
		Files:  prog.Files(),
		Bytes:  prog.Bytes(),
		Trials: tallyTrials(tallies[0], tallies[1], tallies[2], cen.Tally),
	}, nil
}

// wireInputs is cksumd-wire's generated input: the stream windows (wireK
// consecutive files each) and the scenario header every stream sends.
// Each window's expected reply — the batch netsim.Run report over the
// same files under the same scenario Config — is computed on first use,
// after the timed loop.
type wireInputs struct {
	header  []byte
	cfg     netsim.Config
	windows [][][]byte

	mu       sync.Mutex
	expected map[int]wireExpect
}

type wireExpect struct {
	report string
	trials uint64
}

func wireScenario(seed uint64) scenario.Scenario {
	return scenario.Scenario{Name: "perfbench-wire", Seed: seed, Workers: wireStreamWorkers}
}

func prepareWire(seed uint64, workers int) (*wireInputs, error) {
	p, ok := corpus.ByName(wireProfile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", wireProfile)
	}
	p = p.Scale(wireScale)
	p.Seed ^= seed
	mem, err := materialize(p.Build())
	if err != nil {
		return nil, err
	}
	sc := wireScenario(seed)
	header, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	in := &wireInputs{header: header, cfg: cfg, expected: map[int]wireExpect{}}
	for off := 0; off+wireK <= len(mem.files); off += wireK {
		in.windows = append(in.windows, mem.files[off:off+wireK])
	}
	if len(in.windows) == 0 {
		return nil, fmt.Errorf("corpus has fewer than %d files", wireK)
	}
	return in, nil
}

// expect returns window w's expected reply and trial count.
func (in *wireInputs) expect(ctx context.Context, w int) (wireExpect, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if e, ok := in.expected[w]; ok {
		return e, nil
	}
	win := in.windows[w]
	t, err := netsim.Run(ctx, &memWalker{files: win, paths: make([]string, len(win))}, in.cfg)
	if err != nil {
		return wireExpect{}, err
	}
	e := wireExpect{report: t.Report(), trials: tallyTrials(t)}
	in.expected[w] = e
	return e, nil
}

// wireServer is an in-process cksumd wire endpoint on loopback.
type wireServer struct {
	sv     *scenario.Server
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startWireServer() (*wireServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ws := &wireServer{sv: scenario.NewServer(), addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { ws.done <- ws.sv.ServeListener(ctx, ln) }()
	return ws, nil
}

// stop cancels the listener, drains in-flight streams and waits for the
// accept loop to exit.
func (ws *wireServer) stop() error {
	ws.cancel()
	ws.sv.Wait()
	return <-ws.done
}

// wireOp is one completed (or failed) stream.
type wireOp struct {
	window int
	stats  streamStats
	trials uint64
	err    error
}

// runWireLoop drives wireConns closed-loop clients until the deadline
// (or until each has run maxPer streams, when maxPer > 0).  Client c
// streams windows c, c+wireConns, … cyclically.
func runWireLoop(ws *wireServer, in *wireInputs, deadline time.Time, maxPer int, observe func(wireOp)) []wireOp {
	var mu sync.Mutex
	var ops []wireOp
	var wg sync.WaitGroup
	for c := 0; c < wireConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; ; j += wireConns {
				n := (j - c) / wireConns
				if (maxPer > 0 && n >= maxPer) || (maxPer == 0 && n > 0 && time.Now().After(deadline)) {
					return
				}
				w := j % len(in.windows)
				st, err := streamFiles(ws.addr, in.header, in.windows[w])
				op := wireOp{window: w, stats: st, err: err}
				if observe != nil {
					observe(op)
				}
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ops
}

// verifyWire checks every completed stream's reply against its window's
// expected report; a differing reply becomes the op's error.
func verifyWire(ctx context.Context, in *wireInputs, ops []wireOp) error {
	for i := range ops {
		op := &ops[i]
		e, err := in.expect(ctx, op.window)
		if err != nil {
			return err
		}
		op.trials = e.trials
		if op.err == nil && op.stats.Reply != e.report {
			op.err = fmt.Errorf("window %d: reply differs from netsim.Run report (%d vs %d bytes)", op.window, len(op.stats.Reply), len(e.report))
		}
	}
	return nil
}
