package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"realsum/internal/algo"
	"realsum/internal/atm"
	"realsum/internal/census"
	"realsum/internal/corpus"
	"realsum/internal/dist"
	"realsum/internal/experiments"
	"realsum/internal/ipfrag"
	"realsum/internal/lz"
	"realsum/internal/netsim"
	"realsum/internal/scenario"
	"realsum/internal/sim"
	"realsum/internal/splice"
	"realsum/internal/tcpip"
)

// tracedRun is the state of one traced run: the span recorder, the
// corpora materialized once and shared by every pass, and the timing
// walkers each pass wrapped its corpora in.
type tracedRun struct {
	ctx     context.Context
	tr      *tracer
	seed    uint64
	corpora map[string]*memWalker
	// walkers of the current pass, by pass id.
	walkers map[string][]*timingWalker
}

// corpus returns the profile's corpus at scale, materialized on first
// use under a corpus.Generate span.
func (t *tracedRun) corpus(pass string, parent int, p corpus.Profile, scale float64) (*memWalker, error) {
	key := fmt.Sprintf("%s@%g", p.Name, scale)
	if m, ok := t.corpora[key]; ok {
		return m, nil
	}
	p = p.Scale(scale)
	p.Seed ^= t.seed
	id := t.tr.begin(pass, parent, "corpus.Generate")
	m, err := materialize(p.Build())
	t.tr.end(id)
	if err != nil {
		return nil, err
	}
	t.corpora[key] = m
	return m, nil
}

// pregenerate materializes every corpus the traced passes walk, under
// the "corpus" pass, so no pass span (and no speedup) includes
// generation.
func (t *tracedRun) pregenerate() error {
	root := t.tr.begin("corpus", 0, "pass")
	defer t.tr.end(root)
	u1 := corpus.StanfordU1()
	type need struct {
		p     corpus.Profile
		scale float64
	}
	var needs []need
	for _, p := range corpus.AllProfiles() {
		needs = append(needs, need{p, spliceScale})
	}
	needs = append(needs, need{u1, distScale})
	for _, p := range []corpus.Profile{u1, corpus.SICSOpt(), corpus.SICSSrc(1), corpus.SICSSrc(2)} {
		needs = append(needs, need{p, distTable6Scale})
	}
	tcpS, _, udpS := netsimScenarios(t.seed, benchWorkers)
	needs = append(needs, need{u1, tcpS.Scale}, need{u1, udpS.Scale}, need{u1, netsimScale})
	for _, n := range needs {
		if _, err := t.corpus("corpus", root, n.p, n.scale); err != nil {
			return err
		}
	}
	return nil
}

// wrap times a walk of m on behalf of pass.
func (t *tracedRun) wrap(pass string, m *memWalker) *timingWalker {
	tw := &timingWalker{inner: m}
	t.walkers[pass] = append(t.walkers[pass], tw)
	return tw
}

// call records fn as a span named name under parent.
func (t *tracedRun) call(pass string, parent int, name string, fn func(id int) error) error {
	id := t.tr.begin(pass, parent, name)
	err := fn(id)
	t.tr.end(id)
	return err
}

// simRun is sim.Run over an in-memory corpus, under a sim.Run span.
func (t *tracedRun) simRun(pass string, parent int, m *memWalker, name string, opt sim.Options) (sim.Result, error) {
	var res sim.Result
	err := t.call(pass, parent, "sim.Run", func(int) error {
		var err error
		res, err = sim.Run(t.ctx, t.wrap(pass, m), name, opt)
		return err
	})
	if err == nil && !strings.Contains(pass, "@") {
		t.tr.add("splice.pairs", float64(res.Pairs))
		t.tr.add("splice.splices", float64(res.Total))
		t.tr.add("splice.remaining", float64(res.Remaining))
	}
	return res, err
}

// splicePass re-composes the paper-splice pass from sim.Run calls, one
// span per experiment, and renders it with the experiments renderers.
func (t *tracedRun) splicePass(pass string, workers int) (string, error) {
	root := t.tr.begin(pass, 0, "pass")
	defer t.tr.end(root)
	get := func(parent int, p corpus.Profile) (*memWalker, error) {
		return t.corpus(pass, parent, p, spliceScale)
	}
	var parts []string
	opt := sim.Options{Workers: workers}

	err := t.call(pass, root, "exp.tables123", func(id int) error {
		var results []sim.Result
		for _, p := range corpus.AllProfiles() {
			m, err := get(id, p)
			if err != nil {
				return err
			}
			o := opt
			o.CheckCRC = true
			r, err := t.simRun(pass, id, m, p.Name, o)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		parts = append(parts, experiments.Table1Report(results), experiments.Table2Report(results), experiments.Table3Report(results))
		return nil
	})
	if err != nil {
		return "", err
	}
	err = t.call(pass, root, "exp.table7", func(id int) error {
		p := corpus.SICSOpt()
		m, err := get(id, p)
		if err != nil {
			return err
		}
		o := opt
		o.CheckCRC = true
		plain, err := t.simRun(pass, id, m, p.Name, o)
		if err != nil {
			return err
		}
		o.Compress = true
		comp, err := t.simRun(pass, id, m, p.Name+" compressed", o)
		if err != nil {
			return err
		}
		parts = append(parts, experiments.Table7Report(plain, comp))
		return nil
	})
	if err != nil {
		return "", err
	}
	table8Systems := []corpus.Profile{corpus.SICSOpt(), corpus.StanfordU1(), corpus.StanfordUsrLocal(), corpus.SICSSrc(1), corpus.SICSSrc(2)}
	err = t.call(pass, root, "exp.table8", func(id int) error {
		var rows []experiments.Table8Row
		for _, p := range table8Systems {
			m, err := get(id, p)
			if err != nil {
				return err
			}
			row := experiments.Table8Row{System: p.Name}
			for _, name := range []string{"tcp", "f255", "f256"} {
				alg, ok := tcpip.AlgByName(name)
				if !ok {
					return fmt.Errorf("packet builder cannot carry %q", name)
				}
				o := opt
				o.Build = tcpip.BuildOptions{Alg: alg}
				r, err := t.simRun(pass, id, m, p.Name, o)
				if err != nil {
					return err
				}
				row.Results = append(row.Results, experiments.AlgResult{Algo: name, Label: alg.String(), Res: r})
			}
			rows = append(rows, row)
		}
		parts = append(parts, experiments.Table8Report(rows))
		return nil
	})
	if err != nil {
		return "", err
	}
	headerTrailer := func(id int, p corpus.Profile) (hdr, trl sim.Result, err error) {
		m, err := get(id, p)
		if err != nil {
			return hdr, trl, err
		}
		if hdr, err = t.simRun(pass, id, m, p.Name, opt); err != nil {
			return hdr, trl, err
		}
		o := opt
		o.Build = tcpip.BuildOptions{Placement: tcpip.PlacementTrailer}
		trl, err = t.simRun(pass, id, m, p.Name, o)
		return hdr, trl, err
	}
	err = t.call(pass, root, "exp.table9", func(id int) error {
		var rows []experiments.Table9Row
		for _, p := range table8Systems {
			hdr, trl, err := headerTrailer(id, p)
			if err != nil {
				return err
			}
			rows = append(rows, experiments.Table9Row{System: p.Name, Header: hdr, Trailer: trl})
		}
		parts = append(parts, experiments.Table9Report(rows))
		return nil
	})
	if err != nil {
		return "", err
	}
	err = t.call(pass, root, "exp.table10", func(id int) error {
		hdr, trl, err := headerTrailer(id, corpus.StanfordU1())
		if err != nil {
			return err
		}
		parts = append(parts, experiments.Table10Report(experiments.Table10Data{Header: hdr, Trailer: trl}))
		return nil
	})
	return strings.Join(parts, "\n"), err
}

// convolve is pk.Convolve(p1) under a dist.Convolve span, counting the
// call and its multiply-adds (p1's support × the modulus).
func (t *tracedRun) convolve(pass string, parent int, pk, p1 dist.PMF) dist.PMF {
	id := t.tr.begin(pass, parent, "dist.Convolve")
	out := pk.Convolve(p1)
	t.tr.end(id)
	if !strings.Contains(pass, "@") {
		t.tr.add("dist.convolve_calls", 1)
		t.tr.add("dist.convolve_madds", float64(support(p1))*float64(p1.M))
	}
	return out
}

// selfMatch is pk.SelfMatch() under a dist.SelfMatch span.
func (t *tracedRun) selfMatch(pass string, parent int, pk dist.PMF) float64 {
	id := t.tr.begin(pass, parent, "dist.SelfMatch")
	defer t.tr.end(id)
	return pk.SelfMatch()
}

func support(p dist.PMF) int {
	n := 0
	for _, v := range p.P {
		if v != 0 {
			n++
		}
	}
	return n
}

// collect runs one sim.Collect* call under a sim.Collect span.
func (t *tracedRun) collect(pass string, parent int, fn func() error) error {
	return t.call(pass, parent, "sim.Collect", func(int) error { return fn() })
}

// distPass re-composes the paper-dist pass (Figures 2–3, Tables 4–6)
// from sim.Collect* and dist.PMF calls.
func (t *tracedRun) distPass(pass string, workers int) (string, error) {
	root := t.tr.begin(pass, 0, "pass")
	defer t.tr.end(root)
	opt := sim.CollectOptions{Workers: workers, Seed: t.seed}
	ctx := t.ctx
	var parts []string
	u1 := corpus.StanfordU1()

	err := t.call(pass, root, "exp.figure2", func(id int) error {
		m, err := t.corpus(pass, id, u1, distScale)
		if err != nil {
			return err
		}
		d := experiments.Figure2Data{PDF: map[int][]float64{}, CDF65: map[int][]float64{}}
		var single *dist.Histogram
		for _, k := range []int{1, 2, 4} {
			var h *dist.Histogram
			if err := t.collect(pass, id, func() (err error) {
				h, err = sim.CollectBlockHistogram(ctx, t.wrap(pass, m), k, opt)
				return err
			}); err != nil {
				return err
			}
			d.PDF[k], d.CDF65[k] = h.SortedPDF(), h.CDF(65)
			if k == 1 {
				single = h
			}
		}
		p1 := dist.FromHistogram(single)
		d.Predict = sortedDesc(t.convolve(pass, id, p1, p1))
		d.TopShare = single.TopShare(65)
		d.PMaxValue, d.PMaxP = single.PMax()
		parts = append(parts, experiments.Figure2Report(d))
		return nil
	})
	if err != nil {
		return "", err
	}
	err = t.call(pass, root, "exp.figure3", func(id int) error {
		m, err := t.corpus(pass, id, u1, distScale)
		if err != nil {
			return err
		}
		d := map[string][]float64{}
		for _, s := range []struct{ label, algo string }{{"IP/TCP", "tcp"}, {"F255", "f255"}, {"F256", "f256"}} {
			var h *dist.Histogram
			if err := t.collect(pass, id, func() (err error) {
				h, err = sim.CollectCellHistogram(ctx, t.wrap(pass, m), algo.MustLookup(s.algo), opt)
				return err
			}); err != nil {
				return err
			}
			pdf := h.SortedPDF()
			if len(pdf) > 256 {
				pdf = pdf[:256]
			}
			d[s.label] = pdf
		}
		parts = append(parts, experiments.Figure3Report(d))
		return nil
	})
	if err != nil {
		return "", err
	}
	err = t.call(pass, root, "exp.table4", func(id int) error {
		m, err := t.corpus(pass, id, u1, distScale)
		if err != nil {
			return err
		}
		var single *dist.GlobalSampler
		if err := t.collect(pass, id, func() (err error) {
			single, err = sim.CollectGlobal(ctx, t.wrap(pass, m), 1, opt)
			return err
		}); err != nil {
			return err
		}
		p1 := dist.FromHistogram(single.Histogram())
		if !strings.Contains(pass, "@") {
			t.tr.add("dist.p1_support", float64(support(p1)))
		}
		var rows []experiments.Table4Row
		pk := p1
		for k := 1; k <= 5; k++ {
			var g *dist.GlobalSampler
			if err := t.collect(pass, id, func() (err error) {
				g, err = sim.CollectGlobal(ctx, t.wrap(pass, m), k, opt)
				return err
			}); err != nil {
				return err
			}
			rows = append(rows, experiments.Table4Row{K: k, Uniform: 1.0 / 65535, Predicted: t.selfMatch(pass, id, pk), Measured: g.CongruentProbability()})
			if k < 5 {
				pk = t.convolve(pass, id, pk, p1)
			}
		}
		parts = append(parts, experiments.Table4Report(rows))
		return nil
	})
	if err != nil {
		return "", err
	}
	err = t.call(pass, root, "exp.table5", func(id int) error {
		m, err := t.corpus(pass, id, u1, distScale)
		if err != nil {
			return err
		}
		var rows []experiments.Table5Row
		for k := 1; k <= 4; k++ {
			var g *dist.GlobalSampler
			var loc, nc dist.LocalStats
			if err := t.collect(pass, id, func() (err error) {
				g, err = sim.CollectGlobal(ctx, t.wrap(pass, m), k, opt)
				return err
			}); err != nil {
				return err
			}
			if err := t.collect(pass, id, func() (err error) {
				loc, err = sim.CollectLocal(ctx, t.wrap(pass, m), k, 512, opt)
				return err
			}); err != nil {
				return err
			}
			if err := t.collect(pass, id, func() (err error) {
				nc, err = sim.CollectLocalAnyCells(ctx, t.wrap(pass, m), k, 512, 8, opt)
				return err
			}); err != nil {
				return err
			}
			rows = append(rows, experiments.Table5Row{K: k, Global: g.CongruentProbability(), Local: loc.CongruentP(),
				ExcludingIdentical: loc.ExcludeIdenticalP(), NonContiguous: nc.CongruentP(), NonContiguousExcl: nc.ExcludeIdenticalP()})
		}
		parts = append(parts, experiments.Table5Report(rows))
		return nil
	})
	if err != nil {
		return "", err
	}
	err = t.call(pass, root, "exp.table6", func(id int) error {
		var systems []experiments.Table6System
		for _, p := range []corpus.Profile{u1, corpus.SICSOpt(), corpus.SICSSrc(1), corpus.SICSSrc(2)} {
			m, err := t.corpus(pass, id, p, distTable6Scale)
			if err != nil {
				return err
			}
			var single *dist.GlobalSampler
			if err := t.collect(pass, id, func() (err error) {
				single, err = sim.CollectGlobal(ctx, t.wrap(pass, m), 1, opt)
				return err
			}); err != nil {
				return err
			}
			p1 := dist.FromHistogram(single.Histogram())
			pk := p1
			res, err := t.simRun(pass, id, m, p.Name, sim.Options{Workers: workers})
			if err != nil {
				return err
			}
			sys := experiments.Table6System{System: p.Name}
			const n = 7 // cells per 256-byte packet
			for k := 1; k <= 4; k++ {
				var g *dist.GlobalSampler
				var loc dist.LocalStats
				if err := t.collect(pass, id, func() (err error) {
					g, err = sim.CollectGlobal(ctx, t.wrap(pass, m), k, opt)
					return err
				}); err != nil {
					return err
				}
				if err := t.collect(pass, id, func() (err error) {
					loc, err = sim.CollectLocal(ctx, t.wrap(pass, m), k, 512, opt)
					return err
				}); err != nil {
					return err
				}
				excl := loc.ExcludeIdenticalP()
				factor := float64(n-k) / float64(n-1)
				var actual float64
				if res.RemainingByLen[k] > 0 {
					actual = float64(res.MissedByLen[k]) / float64(res.RemainingByLen[k])
				}
				sys.K = append(sys.K, k)
				sys.PredictedGlobal = append(sys.PredictedGlobal, t.selfMatch(pass, id, pk))
				sys.MeasuredGlobal = append(sys.MeasuredGlobal, g.CongruentProbability())
				sys.LocalCongruent = append(sys.LocalCongruent, loc.CongruentP())
				sys.ExcludeIdentical = append(sys.ExcludeIdentical, excl)
				sys.Corrected = append(sys.Corrected, excl*factor)
				sys.Actual = append(sys.Actual, actual)
				if k < 4 {
					pk = t.convolve(pass, id, pk, p1)
				}
			}
			systems = append(systems, sys)
		}
		parts = append(parts, experiments.Table6Report(systems))
		return nil
	})
	return strings.Join(parts, "\n"), err
}

// sortedDesc is Figure 2's prediction series: the PMF's positive masses
// in descending order.
func sortedDesc(p dist.PMF) []float64 {
	var out []float64
	for _, v := range p.P {
		if v > 0 {
			out = append(out, v)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// netsimOut is the netsim pass's tallies, kept for the layer metrics.
type netsimOut struct {
	tcp, lz, udp *netsim.Tally
	cen          *census.Result
	tcpMallocs   uint64
}

// netsimPass runs the -netsim scenario set through netsim.Run and the
// census through census.Run, over in-memory corpora.
func (t *tracedRun) netsimPass(pass string, workers int) (string, netsimOut, error) {
	root := t.tr.begin(pass, 0, "pass")
	defer t.tr.end(root)
	var out netsimOut
	tcpS, lzS, udpS := netsimScenarios(t.seed, workers)
	u1 := corpus.StanfordU1()
	for _, x := range []struct {
		name string
		sc   scenario.Scenario
		dst  **netsim.Tally
	}{{"tcp-retrans", tcpS, &out.tcp}, {"tcp-lz", lzS, &out.lz}, {"udpfrag", udpS, &out.udp}} {
		cfg, err := x.sc.Config()
		if err != nil {
			return "", out, err
		}
		err = t.call(pass, root, "netsim.run."+x.name, func(id int) error {
			m, err := t.corpus(pass, id, u1, x.sc.Scale)
			if err != nil {
				return err
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			err = t.call(pass, id, "netsim.Run", func(int) (err error) {
				*x.dst, err = netsim.Run(t.ctx, t.wrap(pass, m), cfg)
				return err
			})
			runtime.ReadMemStats(&ms1)
			if x.name == "tcp-retrans" {
				out.tcpMallocs = ms1.Mallocs - ms0.Mallocs
			}
			return err
		})
		if err != nil {
			return "", out, err
		}
	}
	err := t.call(pass, root, "netsim.run.census", func(id int) error {
		m, err := t.corpus(pass, id, u1, netsimScale)
		if err != nil {
			return err
		}
		return t.call(pass, id, "census.Run", func(int) (err error) {
			out.cen, err = census.Run(t.ctx, census.Config{Walker: t.wrap(pass, m), Seed: t.seed, Workers: workers})
			return err
		})
	})
	if err != nil {
		return "", out, err
	}
	return netsimReport(out.tcp, out.lz, out.udp, out.cen), out, nil
}

// wirePass drives wireTracedStreams closed-loop streams per connection
// against an in-process server, one span per stream with its send,
// drain and read phases as children.
func (t *tracedRun) wirePass(pass string) (ops []wireOp, failed int, err error) {
	root := t.tr.begin(pass, 0, "pass")
	defer t.tr.end(root)
	var in *wireInputs
	if err := t.call(pass, root, "wire.prepare", func(int) (err error) {
		in, err = prepareWire(t.seed, benchWorkers)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var ws *wireServer
	if err := t.call(pass, root, "scenario.listen", func(int) (err error) {
		ws, err = startWireServer()
		return err
	}); err != nil {
		return nil, 0, err
	}
	loop := t.tr.begin(pass, root, "wire.loop")
	ops = runWireLoop(ws, in, time.Time{}, wireTracedStreams, func(op wireOp) {
		// The stream just ended; its phases, from the client's clocks,
		// tile its latency: send (header and frames), drain (zero frame
		// to first reply byte), read (the rest of the report).
		end := time.Now()
		start := end.Add(-op.stats.Latency)
		sendEnd := start.Add(op.stats.Send)
		sid := t.tr.record(pass, loop, "scenario.stream", start, end)
		t.tr.record(pass, sid, "wire.send", start, sendEnd)
		t.tr.record(pass, sid, "wire.drain", sendEnd, sendEnd.Add(op.stats.Drain))
		t.tr.record(pass, sid, "wire.read", sendEnd.Add(op.stats.Drain), end)
	})
	t.tr.end(loop)
	if err := t.call(pass, root, "scenario.stop", func(int) error { return ws.stop() }); err != nil {
		return ops, 0, err
	}
	if err := t.call(pass, root, "wire.verify", func(int) error { return verifyWire(t.ctx, in, ops) }); err != nil {
		return ops, 0, err
	}
	for _, op := range ops {
		if op.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced wire stream failed: %v\n", op.err)
		}
	}
	return ops, failed, nil
}

// wireTracedStreams is how many streams each connection runs in the
// traced run.
const wireTracedStreams = 8

// runTraced is the traced run: every workload's pass re-composed from
// the layers' public functions with spans at each call, each batch pass
// repeated at one worker (the speedup baseline and, at seeds other than
// 0, the correctness reference), the wire loop, and a sweep timing each
// layer's inner function on the same corpora.
func runTraced(workload string, seed uint64, prov provenance) (result, error) {
	t := &tracedRun{ctx: context.Background(), tr: newTracer(), seed: seed,
		corpora: map[string]*memWalker{}, walkers: map[string][]*timingWalker{}}
	res := result{Metrics: map[string]metric{}}
	m := res.Metrics
	check := func(name, got, want string) {
		res.Attempted++
		if got != want {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced %s report differs from its reference\n", name)
		}
	}
	if err := t.pregenerate(); err != nil {
		return res, fmt.Errorf("corpora: %w", err)
	}
	passWall := map[string]time.Duration{}
	timed := func(pass string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		passWall[pass] = time.Since(t0)
		return err
	}

	// paper-splice and paper-dist: workers benchWorkers, then 1.
	for _, x := range []struct {
		name string
		run  func(pass string, workers int) (string, error)
	}{{"paper-splice", t.splicePass}, {"paper-dist", t.distPass}} {
		var got, ref string
		if err := timed(x.name, func() (err error) { got, err = x.run(x.name, benchWorkers); return err }); err != nil {
			return res, fmt.Errorf("%s: %w", x.name, err)
		}
		if err := timed(x.name+"@w1", func() (err error) { ref, err = x.run(x.name+"@w1", 1); return err }); err != nil {
			return res, fmt.Errorf("%s at one worker: %w", x.name, err)
		}
		if seed == 0 {
			b, err := os.ReadFile(goldenPath(x.name))
			if err != nil {
				return res, err
			}
			ref = string(b)
		}
		check(x.name, got, ref)
	}

	var ns netsimOut
	var nsReport, nsRef string
	if err := timed("netsim-battery", func() (err error) {
		nsReport, ns, err = t.netsimPass("netsim-battery", benchWorkers)
		return err
	}); err != nil {
		return res, fmt.Errorf("netsim-battery: %w", err)
	}
	if err := timed("netsim-battery@w1", func() (err error) {
		nsRef, _, err = t.netsimPass("netsim-battery@w1", 1)
		return err
	}); err != nil {
		return res, fmt.Errorf("netsim-battery at one worker: %w", err)
	}
	if seed == 0 {
		b, err := os.ReadFile(goldenPath("netsim-battery"))
		if err != nil {
			return res, err
		}
		nsRef = string(b)
	}
	check("netsim-battery", nsReport, nsRef)

	ops, wireFailed, err := t.wirePass("cksumd-wire")
	if err != nil {
		return res, fmt.Errorf("cksumd-wire: %w", err)
	}
	res.Attempted += len(ops)
	res.Failed += wireFailed

	sw, err := t.layerSweep(ns)
	if err != nil {
		return res, fmt.Errorf("layer sweep: %w", err)
	}
	for k, v := range sw {
		m[k] = v
	}

	// corpus: the walks of the two paper passes, which the untraced
	// experiments regenerate on every walk; sim: every batch pass's feed.
	var genBytes, distinct int64
	var genTime, feedWait time.Duration
	seen := map[*memWalker]bool{}
	for _, p := range []string{"paper-splice", "paper-dist", "netsim-battery"} {
		for _, tw := range t.walkers[p] {
			feedWait += tw.blocked
			if p == "netsim-battery" {
				continue
			}
			genBytes += tw.bytes
			if m := tw.inner.(*memWalker); !seen[m] {
				seen[m] = true
				distinct += m.bytes
				genTime += m.gen
			}
		}
	}
	m["corpus.gen_s"] = metric{genTime.Seconds(), "s"}
	m["corpus.gen_mb_per_s"] = metric{float64(distinct) / 1e6 / genTime.Seconds(), "MB/s"}
	m["corpus.bytes_generated"] = metric{float64(genBytes), "bytes"}
	m["corpus.regen_ratio"] = metric{float64(genBytes) / float64(distinct), "ratio"}

	pairs := t.tr.count("splice.pairs")
	m["splice.pairs"] = metric{pairs, "count"}
	m["splice.splices"] = metric{t.tr.count("splice.splices"), "count"}
	m["splice.reach_crc_frac"] = metric{t.tr.count("splice.remaining") / t.tr.count("splice.splices"), "ratio"}

	m["sim.run_s"] = metric{(t.tr.totalIn("paper-splice", "sim.Run") + t.tr.totalIn("paper-dist", "sim.Run")).Seconds(), "s"}
	m["sim.collect_s"] = metric{t.tr.totalIn("paper-dist", "sim.Collect").Seconds(), "s"}
	m["sim.feed_wait_s"] = metric{feedWait.Seconds(), "s"}
	for _, p := range []struct{ pass, span string }{
		{"paper-splice", "exp.tables123"}, {"paper-splice", "exp.table7"}, {"paper-splice", "exp.table8"},
		{"paper-splice", "exp.table9"}, {"paper-splice", "exp.table10"},
		{"paper-dist", "exp.figure2"}, {"paper-dist", "exp.figure3"}, {"paper-dist", "exp.table4"},
		{"paper-dist", "exp.table5"}, {"paper-dist", "exp.table6"},
		{"netsim-battery", "netsim.run.tcp-retrans"}, {"netsim-battery", "netsim.run.tcp-lz"},
		{"netsim-battery", "netsim.run.udpfrag"}, {"netsim-battery", "netsim.run.census"},
	} {
		w1, w2 := t.tr.totalIn(p.pass+"@w1", p.span), t.tr.totalIn(p.pass, p.span)
		m["sim.speedup_2w."+strings.TrimPrefix(strings.TrimPrefix(p.span, "exp."), "netsim.run.")] = metric{w1.Seconds() / w2.Seconds(), "ratio"}
	}

	m["dist.convolve_s"] = metric{t.tr.totalIn("paper-dist", "dist.Convolve").Seconds(), "s"}
	m["dist.convolve_calls"] = metric{t.tr.count("dist.convolve_calls"), "count"}
	m["dist.convolve_madds"] = metric{t.tr.count("dist.convolve_madds"), "count"}
	m["dist.p1_support"] = metric{t.tr.count("dist.p1_support"), "count"}
	m["dist.selfmatch_s"] = metric{t.tr.totalIn("paper-dist", "dist.SelfMatch").Seconds(), "s"}

	// netsim pass layer metrics.
	tallies := []*netsim.Tally{ns.tcp, ns.lz, ns.udp, ns.cen.Tally}
	trials := tallyTrials(tallies...)
	var corrupted, delivered uint64
	for _, tl := range tallies {
		for _, c := range tl.Channels {
			corrupted += c.Corrupted
			delivered += c.PDUsDelivered
		}
	}
	var tx, acc uint64
	for _, c := range ns.tcp.Channels {
		for _, p := range c.Placements {
			for _, r := range p.Retrans {
				tx += r.Transmissions
				acc += r.Accepted
			}
		}
	}
	for _, name := range []string{"tcp-retrans", "tcp-lz", "udpfrag", "census"} {
		m["netsim.run_s."+name] = metric{t.tr.totalIn("netsim-battery", "netsim.run."+name).Seconds(), "s"}
	}
	m["netsim.trials"] = metric{float64(trials), "count"}
	m["netsim.corrupted_frac"] = metric{float64(corrupted) / float64(delivered), "ratio"}
	m["netsim.retrans_tx_per_pdu"] = metric{float64(tx) / float64(acc), "ratio"}
	m["netsim.allocs_per_trial"] = metric{float64(ns.tcpMallocs) / float64(tallyTrials(ns.tcp)), "count"}
	var renders []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_ = ns.tcp.Report()
		renders = append(renders, time.Since(t0).Seconds()*1e3)
	}
	m["netsim.report_ms"] = metric{median(renders), "ms"}

	var sendBlock, drain, reportBytes []float64
	var frames float64
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		sendBlock = append(sendBlock, op.stats.SendBlock.Seconds()*1e3)
		drain = append(drain, op.stats.Drain.Seconds()*1e3)
		reportBytes = append(reportBytes, float64(len(op.stats.Reply)))
		frames += float64(op.stats.Frames)
	}
	m["scenario.send_block_ms"] = metric{median(sendBlock), "ms"}
	m["scenario.drain_ms"] = metric{median(drain), "ms"}
	m["scenario.frames"] = metric{frames, "count"}
	m["scenario.report_bytes"] = metric{median(reportBytes), "bytes"}

	res.Correct = res.Failed == 0
	m["error_rate"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}

	// The untraced pass of the selected workload, for the overhead line.
	overhead := "n/a"
	if pass, ok := batchPasses[workload]; ok {
		t0 := time.Now()
		if _, err := pass(t.ctx, seed, benchWorkers); err == nil {
			u := time.Since(t0)
			overhead = fmt.Sprintf("traced pass %.3f s vs untraced %.3f s (%+.1f%%; the traced pass also skips corpus regeneration)",
				passWall[workload].Seconds(), u.Seconds(), 100*(passWall[workload].Seconds()/u.Seconds()-1))
		}
	}
	fmt.Printf("trace overhead for %s: %s\n", workload, overhead)
	printSizing(t, m, passWall, ns)
	printSelfTimes(t.tr)

	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := t.tr.write(path, prov); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
	} else {
		fmt.Printf("trace written to %s\n", path)
	}
	return res, nil
}

// printSizing checks the traced numbers against the sizing profile: the
// share of each pass its dominant layer accounts for.
func printSizing(t *tracedRun, m map[string]metric, wall map[string]time.Duration, ns netsimOut) {
	dw := wall["paper-dist"].Seconds()
	fmt.Printf("sizing: dist.convolve_s is %.0f%% of the traced paper-dist pass (%.2f of %.2f s)\n",
		100*m["dist.convolve_s"].Value/dw, m["dist.convolve_s"].Value, dw)
	sw := wall["paper-splice"].Seconds()
	pairCPU := m["splice.pair_ns"].Value * m["splice.pairs"].Value / 1e9
	fmt.Printf("sizing: splice.pair_ns × pairs is %.0f%% of the traced paper-splice pass's %d-worker CPU time (%.2f of %.2f CPU-s)\n",
		100*pairCPU/(sw*float64(benchWorkers)), benchWorkers, pairCPU, sw*float64(benchWorkers))
	// Sum calls the netsim passes made, per algorithm: one per (file
	// packet × placement) for the sent sums, one per corrupted delivery
	// per placement for scoring, and on the retransmission lanes about
	// one per corrupted arrival (transmissions not ending in an intact
	// acceptance).
	var sumCPU float64
	for _, tl := range []*netsim.Tally{ns.tcp, ns.lz, ns.udp, ns.cen.Tally} {
		packets := float64(tl.Channels[0].PacketsSent) / 6 // six trials per file × channel
		for _, c := range tl.Channels {
			for _, pt := range c.Placements {
				for ai, a := range pt.Algos {
					calls := float64(a.Detected + a.Undetected)
					if c.Name == tl.Channels[0].Name {
						calls += packets
					}
					if ai < len(pt.Retrans) {
						r := pt.Retrans[ai]
						calls += float64(r.Transmissions-r.Accepted) + float64(r.AcceptedCorrupt)
					}
					sumCPU += calls * m["algo.sum_ns."+a.Name].Value / 1e9
				}
			}
		}
	}
	nw := wall["netsim-battery"].Seconds()
	fmt.Printf("sizing: algo.sum_ns × Sum calls is about %.0f%% of the traced netsim-battery pass's %d-worker CPU time (%.2f of %.2f CPU-s)\n",
		100*sumCPU/(nw*float64(benchWorkers)), benchWorkers, sumCPU, nw*float64(benchWorkers))
}

// printSelfTimes prints each pass's self time per span name.
func printSelfTimes(tr *tracer) {
	self := map[string]map[string]time.Duration{}
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	st := selfTimes(spans)
	for _, s := range spans {
		if self[s.Pass] == nil {
			self[s.Pass] = map[string]time.Duration{}
		}
		self[s.Pass][s.Name] += st[s.ID]
	}
	var passes []string
	for p := range self {
		passes = append(passes, p)
	}
	sort.Strings(passes)
	for _, p := range passes {
		var names []string
		for n := range self[p] {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return self[p][names[i]] > self[p][names[j]] })
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%.3fs", n, self[p][n].Seconds())
		}
		fmt.Printf("self time [%s]:%s\n", p, b.String())
	}
}

// layerSweep times each layer's inner function directly, on the netsim
// TCP corpus (the traffic netsim-battery sends) and the census slate.
func (t *tracedRun) layerSweep(ns netsimOut) (map[string]metric, error) {
	m := map[string]metric{}
	tcpS, _, _ := netsimScenarios(t.seed, benchWorkers)
	src, err := t.corpus("layers", 0, corpus.StanfordU1(), tcpS.Scale)
	if err != nil {
		return nil, err
	}
	root := t.tr.begin("layers", 0, "pass")
	defer t.tr.end(root)

	// tcpip: 256-byte segments of every file, as netsim and sim.Run send.
	var pkts [][]byte
	var nsPerPkt time.Duration
	t.call("layers", root, "tcpip.Flow.NextPacket", func(int) error {
		var buf []byte
		start := time.Now()
		for _, f := range src.files {
			flow := tcpip.NewLoopbackFlow(tcpip.BuildOptions{})
			for off := 0; off < len(f); off += sim.DefaultSegmentSize {
				buf = flow.NextPacket(buf[:0], f[off:min(off+sim.DefaultSegmentSize, len(f))])
				pkts = append(pkts, append([]byte(nil), buf...))
			}
		}
		nsPerPkt = time.Since(start) / time.Duration(len(pkts))
		return nil
	})
	m["tcpip.packet_ns"] = metric{float64(nsPerPkt.Nanoseconds()), "ns"}

	// splice: every adjacent pair with the AAL5 CRC on (Tables 1–3).
	t.call("layers", root, "splice.Enumerator.Pair", func(int) error {
		e := splice.NewEnumerator()
		cfg := splice.Config{CheckCRC: true}
		e.Pair(pkts[0], pkts[1], cfg) // warm the reusable buffers
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		n := 0
		for i := 1; i < len(pkts); i++ {
			e.Pair(pkts[i-1], pkts[i], cfg)
			n++
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		m["splice.pair_ns"] = metric{float64(d.Nanoseconds()) / float64(n), "ns"}
		m["splice.allocs_per_pair"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(n), "count"}
		return nil
	})

	// atm: segment each packet into AAL5 cells, then reassemble it.
	var trains [][]atm.Cell
	var pdus [][]byte
	t.call("layers", root, "atm", func(int) error {
		var cells []atm.Cell
		start := time.Now()
		for _, p := range pkts {
			cells, _ = atm.AppendSegment(cells[:0], p, 0, 32)
			trains = append(trains, append([]atm.Cell(nil), cells...))
		}
		m["atm.segment_ns_per_pdu"] = metric{float64(time.Since(start).Nanoseconds()) / float64(len(pkts)), "ns"}
		start = time.Now()
		for _, tr := range trains {
			if _, err := atm.Reassemble(tr); err != nil {
				return err
			}
		}
		m["atm.reassemble_ns_per_pdu"] = metric{float64(time.Since(start).Nanoseconds()) / float64(len(trains)), "ns"}
		for _, tr := range trains {
			pdu := make([]byte, 0, len(tr)*atm.PayloadSize)
			for i := range tr {
				pdu = append(pdu, tr[i].Payload[:]...)
			}
			pdus = append(pdus, pdu)
		}
		return nil
	})

	// algo: every registry algorithm and census-only candidate over the
	// AAL5 PDUs netsim-battery scores.
	algs := algo.All()
	for _, c := range census.Slate() {
		if !c.Builtin {
			for _, a := range census.Algorithms() {
				if a.Name() == c.Key {
					algs = append(algs, a)
				}
			}
		}
	}
	t.call("layers", root, "algo.Sum", func(int) error {
		var calls, mallocs uint64
		for _, a := range algs {
			for _, p := range pdus[:min(len(pdus), 8)] {
				algo.Sum(a, p) // warm
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var best time.Duration
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				for _, p := range pdus {
					algo.Sum(a, p)
				}
				if d := time.Since(start); rep == 0 || d < best {
					best = d
				}
			}
			runtime.ReadMemStats(&ms1)
			calls += uint64(3 * len(pdus))
			mallocs += ms1.Mallocs - ms0.Mallocs
			m["algo.sum_ns."+a.Name()] = metric{float64(best.Nanoseconds()) / float64(len(pdus)), "ns"}
		}
		m["algo.sum_allocs"] = metric{float64(mallocs) / float64(calls), "count"}
		return nil
	})

	// netsim channels: each default channel over every file's cell train,
	// six trials per file as netsim runs them.
	t.call("layers", root, "netsim.Channel.Transmit", func(int) error {
		var work netsim.Stream
		for ci, spec := range netsim.DefaultChannels() {
			ch := spec.New()
			rng := rand.New(rand.NewPCG(t.seed, uint64(ci)))
			var d time.Duration
			var n int
			for fi := 0; fi < len(trains); {
				// One file's worth of consecutive packets per train.
				end := min(fi+64, len(trains))
				var cells []atm.Cell
				var origin []int32
				for k := fi; k < end; k++ {
					cells = append(cells, trains[k]...)
					for range trains[k] {
						origin = append(origin, int32(k-fi))
					}
				}
				for trial := 0; trial < 6; trial++ {
					work.Cells = append(work.Cells[:0], cells...)
					work.Origin = append(work.Origin[:0], origin...)
					start := time.Now()
					ch.Transmit(rng, &work)
					d += time.Since(start)
					n += end - fi
				}
				fi = end
			}
			m["netsim.channel_ns."+spec.Name] = metric{float64(d.Nanoseconds()) / float64(n), "ns"}
		}
		return nil
	})

	// lz: compress every file.
	t.call("layers", root, "lz.Compressor.Compress", func(int) error {
		c := lz.NewCompressor()
		var dst []byte
		var in, out int64
		start := time.Now()
		for _, f := range src.files {
			c.Reset()
			dst = c.Compress(dst[:0], f)
			in += int64(len(f))
			out += int64(len(dst))
		}
		m["lz.compress_mb_per_s"] = metric{float64(in) / 1e6 / time.Since(start).Seconds(), "MB/s"}
		m["lz.ratio"] = metric{float64(out) / float64(in), "ratio"}
		return nil
	})

	// ipfrag: 1024-byte datagrams fragmented at netsim's 280-byte MTU.
	t.call("layers", root, "ipfrag.Reassemble", func(int) error {
		var dgs [][][]byte
		for _, f := range src.files {
			flow := tcpip.NewLoopbackFlow(tcpip.BuildOptions{})
			for off := 0; off+1024 <= len(f); off += 1024 {
				frags, err := ipfrag.Fragment(flow.NextPacket(nil, f[off:off+1024]), 280)
				if err != nil {
					return err
				}
				dgs = append(dgs, frags)
			}
		}
		start := time.Now()
		for _, frags := range dgs {
			if _, err := ipfrag.Reassemble(frags); err != nil {
				return err
			}
		}
		m["ipfrag.reassemble_ns"] = metric{float64(time.Since(start).Nanoseconds()) / float64(max(len(dgs), 1)), "ns"}
		return nil
	})

	// census analytic lane over the slate.
	t.call("layers", root, "census.Analyze", func(int) error {
		var ds []float64
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for _, c := range census.Slate() {
				census.Analyze(c.Params)
			}
			ds = append(ds, time.Since(start).Seconds())
		}
		m["census.analyze_s"] = metric{median(ds), "s"}
		return nil
	})
	return m, nil
}
