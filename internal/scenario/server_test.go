package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"realsum/internal/netsim"
)

// batchReport runs the scenario as a one-shot netsim.Run — the oracle
// every service path must reproduce byte-identically.
func batchReport(t *testing.T, sc Scenario) string {
	t.Helper()
	tally, err := sc.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tally.Report()
}

// TestStreamMatchesBatch is the determinism oracle of the service path:
// a scenario executed through the server's concurrent stream engine —
// sharded workers, batched flushes every file — merges to a tally
// byte-identical to the batch netsim.Run at the same seed, at every
// worker count.  Run under -race in CI.
func TestStreamMatchesBatch(t *testing.T) {
	base := Scenario{
		Name:    "oracle",
		Profile: "smeg.stanford.edu:/u1",
		Scale:   0.02,
		Trials:  2,
		Seed:    42,
	}
	want := batchReport(t, base)
	for _, workers := range []int{1, 2, 8} {
		sc := base
		sc.Workers = workers
		sv := NewServer()
		sv.FlushEvery = 1 // maximum batching churn: flush after every file
		streams, err := sv.Add(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := sv.Run(context.Background()); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		st := streams[0]
		if st.State() != StateDone {
			t.Fatalf("workers %d: state %v, want done", workers, st.State())
		}
		if got := st.Report(); got != want {
			t.Errorf("workers %d: stream tally differs from batch netsim.Run", workers)
		}
	}
}

// TestConcurrentStreams runs eight replicas of one scenario at once:
// replica 0 must reproduce the batch run at the base seed, every other
// replica the batch run at its derived netsim.StreamSeed — concurrency
// may not leak between streams.
func TestConcurrentStreams(t *testing.T) {
	sc := Scenario{
		Name:    "fleet",
		Profile: "smeg.stanford.edu:/u1",
		Scale:   0.01,
		Trials:  1,
		Seed:    7,
		Streams: 8,
		Workers: 2,
	}
	sv := NewServer()
	streams, err := sv.Add(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 8 {
		t.Fatalf("Add registered %d streams, want 8", len(streams))
	}
	if err := sv.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for r, st := range streams {
		if st.State() != StateDone {
			t.Errorf("replica %d: state %v, want done", r, st.State())
			continue
		}
		ref := sc
		ref.Seed = netsim.StreamSeed(sc.Seed, r)
		if st.Seed != ref.Seed {
			t.Errorf("replica %d: seed %d, want %d", r, st.Seed, ref.Seed)
		}
		if got, want := st.Report(), batchReport(t, ref); got != want {
			t.Errorf("replica %d: tally differs from batch run at seed %d", r, ref.Seed)
		}
	}
	if r0, r1 := streams[0].Report(), streams[1].Report(); r0 == r1 {
		t.Error("replicas 0 and 1 produced identical reports; replica seeds are not decorrelating")
	}
}

// TestGracefulShutdownKeepsCompletedTally cancels the server while an
// unbounded stream is still running: the bounded stream that already
// completed must keep its batch-identical tally through the drain, the
// unbounded one must stop without error, and Run must return cleanly.
func TestGracefulShutdownKeepsCompletedTally(t *testing.T) {
	bounded := Scenario{
		Name:    "bounded",
		Profile: "smeg.stanford.edu:/u1",
		Scale:   0.01,
		Trials:  1,
		Seed:    3,
	}
	unbounded := bounded
	unbounded.Name = "unbounded"
	unbounded.Seed = 4
	unbounded.Passes = -1

	want := batchReport(t, bounded)

	sv := NewServer()
	bs, err := sv.Add(bounded)
	if err != nil {
		t.Fatal(err)
	}
	us, err := sv.Add(unbounded)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- sv.Run(ctx) }()

	deadline := time.Now().Add(30 * time.Second)
	for bs[0].State() != StateDone && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bs[0].State() != StateDone {
		t.Fatal("bounded stream never completed")
	}
	// On more than one core the bounded stream can finish before the
	// unbounded one has fed its first file; cancel only once it has.
	for us[0].Files() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run after graceful shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if got := bs[0].Report(); got != want {
		t.Error("completed stream's tally changed across the graceful shutdown")
	}
	if s := us[0].State(); s != StateStopped {
		t.Errorf("unbounded stream state %v, want stopped", s)
	}
	if us[0].Passes() == 0 && us[0].Files() == 0 {
		t.Error("unbounded stream never processed anything before shutdown")
	}
}

// TestDurationBudget ends a stream by wall clock: it must come out
// done (budget completed), not stopped.
func TestDurationBudget(t *testing.T) {
	sc := Scenario{
		Name:     "clocked",
		Profile:  "smeg.stanford.edu:/u1",
		Scale:    0.01,
		Trials:   1,
		Passes:   -1,
		Duration: "150ms",
	}
	sv := NewServer()
	streams, err := sv.Add(sc)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sv.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("run returned after %v, before the 150ms budget", elapsed)
	}
	if s := streams[0].State(); s != StateDone {
		t.Errorf("duration-budgeted stream state %v, want done", s)
	}
}

// TestMetricsAndStatus scrapes the HTTP surface after a finished run:
// the pinned counter lines, the batch-identical shape lines, and the
// JSON status document.
func TestMetricsAndStatus(t *testing.T) {
	sc := Scenario{
		Name:    "scrape",
		Profile: "smeg.stanford.edu:/u1",
		Scale:   0.01,
		Trials:  1,
		Seed:    5,
	}
	lz := sc
	lz.Name = "scrape-lz"
	lz.Compress = true
	sv := NewServer()
	streams, err := sv.Add(sc)
	if err != nil {
		t.Fatal(err)
	}
	lzStreams, err := sv.Add(lz)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, w := range []string{
		"cksumd_streams_total 2",
		`cksumd_streams{state="done"} 2`,
		fmt.Sprintf(`cksumd_files_total{stream="0"} %d`, streams[0].Files()),
		`cksumd_trials_total{stream="0",channel="drop"}`,
		`cksumd_undetected_total{stream="0",channel="drop",placement="e2e",algo="crc32"}`,
	} {
		if !strings.Contains(metrics, w) {
			t.Errorf("/metrics missing %q", w)
		}
	}
	// The scrape's shape lines must be exactly the stream tally's — the
	// service view of the batch pin lines.
	for _, line := range streams[0].Tally().ShapeLines() {
		if !strings.Contains(metrics, "stream[0] "+line) {
			t.Errorf("/metrics missing shape line %q", line)
		}
	}
	// The compressed stream's pin lines carry the +lz label.
	for _, line := range lzStreams[0].Tally().ShapeLines() {
		if !strings.HasPrefix(line, "shape[tcp+lz/") {
			t.Errorf("compressed stream shape line %q not labeled tcp+lz", line)
		}
		if !strings.Contains(metrics, fmt.Sprintf("stream[%d] %s", lzStreams[0].ID, line)) {
			t.Errorf("/metrics missing compressed shape line %q", line)
		}
	}

	var status struct {
		UptimeSeconds float64        `json:"uptime_seconds"`
		Streams       []StreamStatus `json:"streams"`
	}
	if err := json.Unmarshal([]byte(get("/status")), &status); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	if len(status.Streams) != 2 {
		t.Fatalf("/status has %d streams, want 2", len(status.Streams))
	}
	s := status.Streams[0]
	if s.Name != "scrape" || s.State != "done" || s.Files == 0 || s.Trials == 0 {
		t.Errorf("status row = %+v", s)
	}
	if s.Scenario != "profile:smeg.stanford.edu:/u1" {
		t.Errorf("status scenario = %q", s.Scenario)
	}
	if s.Compress {
		t.Error("raw stream's status row claims compression")
	}
	if l := status.Streams[1]; l.Name != "scrape-lz" || !l.Compress {
		t.Errorf("compressed status row = %+v, want scrape-lz with compress=true", l)
	}

	if health := get("/healthz"); !strings.Contains(health, "ok") {
		t.Errorf("/healthz = %q", health)
	}
}
