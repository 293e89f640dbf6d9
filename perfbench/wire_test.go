package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"realsum/internal/netsim"
	"realsum/internal/scenario"
)

func testServer(t *testing.T) *wireServer {
	t.Helper()
	ws, err := startWireServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ws.stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return ws
}

// smallWireInputs is one window of two short files, with the reply the
// batch engine renders for it.
func smallWireInputs(t *testing.T) *wireInputs {
	t.Helper()
	sc := scenario.Scenario{Name: "wire-test", Trials: 1, Seed: 7, Workers: 1, Channels: []string{"bitflip"}}
	header := []byte(`{"name":"wire-test","trials":1,"seed":7,"workers":1,"channels":["bitflip"]}`)
	files := [][]byte{[]byte(strings.Repeat("checksum ", 60)), []byte(strings.Repeat("crc ", 200))}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	tally, err := netsim.Run(context.Background(), &memWalker{files: files, paths: []string{"a", "b"}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := &wireInputs{header: header, cfg: cfg, windows: [][][]byte{files}, expected: map[int]wireExpect{}}
	if e, err := in.expect(context.Background(), 0); err != nil || e.report != tally.Report() {
		t.Fatalf("expected report: err %v", err)
	}
	return in
}

func TestWireStreamMatchesBatchReport(t *testing.T) {
	ws := testServer(t)
	in := smallWireInputs(t)
	st, err := streamFiles(ws.addr, in.header, in.windows[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := in.expected[0].report; st.Reply != want {
		t.Errorf("reply differs from netsim.Run report:\n%s\nwant:\n%s", st.Reply, want)
	}
	if st.Frames != 2 || st.Bytes != int64(len(in.windows[0][0])+len(in.windows[0][1])) {
		t.Errorf("frames %d bytes %d", st.Frames, st.Bytes)
	}
	if st.Latency <= 0 || st.Send+st.Drain > st.Latency {
		t.Errorf("phases do not fit the latency: send %v drain %v latency %v", st.Send, st.Drain, st.Latency)
	}
}

func TestWireZeroFrameOnlyGetsEmptyReport(t *testing.T) {
	ws := testServer(t)
	in := smallWireInputs(t)
	st, err := streamFiles(ws.addr, in.header, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 0 || !strings.Contains(st.Reply, "bitflip") {
		t.Errorf("zero-frame stream: %d frames, reply %q", st.Frames, st.Reply)
	}
}

func TestWireOversizeFrameIsAFailedOperation(t *testing.T) {
	ws := testServer(t)
	in := smallWireInputs(t)
	_, err := streamFiles(ws.addr, in.header, [][]byte{make([]byte, scenario.MaxFrame+1)})
	if err == nil {
		t.Fatal("oversize frame: want an error, got a reply")
	}
}

func TestWireLoopCountsWrongRepliesAsFailed(t *testing.T) {
	ws := testServer(t)
	in := smallWireInputs(t)
	ctx := context.Background()
	ops := runWireLoop(ws, in, time.Time{}, 2, nil)
	if len(ops) != 2*wireConns {
		t.Fatalf("%d ops, want %d", len(ops), 2*wireConns)
	}
	if err := verifyWire(ctx, in, ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.err != nil {
			t.Fatalf("correct stream failed: %v", op.err)
		}
		if op.trials == 0 {
			t.Error("verified op carries no trial count")
		}
	}
	e := in.expected[0]
	e.report += "tampered"
	in.expected[0] = e
	ops = runWireLoop(ws, in, time.Time{}, 1, nil)
	if err := verifyWire(ctx, in, ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.err == nil {
			t.Error("reply differing from the expected report was not counted as failed")
		}
	}
}
