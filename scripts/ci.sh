#!/usr/bin/env bash
# CI gate: vet, build, full test suite, the race detector over the
# concurrent packages, the workers-determinism guarantees and the CRC
# kernel layer, and a small-scale smoke of the benchmark JSON emitters.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== fuzz seed-corpus smoke =="
# Runs every Fuzz target over its f.Add seeds plus the checked-in
# testdata corpora in normal (non-fuzzing) mode — FuzzLZRoundTrip's
# testdata/fuzz seeds included.  `go test -fuzz` only accepts a single
# package, so the smoke uses -run across the tree.
go test -count=1 -run Fuzz ./...

echo "== splice enumerator fuzz (20 s) =="
# The split-join enumerator against the materializing reference on
# fuzzed payloads, sizes (runts included) and checksum configurations.
go test -run XXX -fuzz FuzzEnumerateMatchesBruteForce -fuzztime 20s ./internal/splice/

echo "== CRC kernel differential smoke (-race) =="
# Every kernel against the scalar oracle and hash/crc32, the
# fixed-order selection contract (stdlib for CRC-32/CRC-32C, slicing8
# elsewhere, a failing engine skipped), and the registry's
# Sum/KernelControl surface, all under the race detector — tables are
# shared across netsim workers.
go test -race -count=1 -cpu 1,2 -run 'Kernel|SumZeroAlloc|SumHelper' ./internal/crc/ ./internal/algo/

echo "== go test -race (order of x oracle) =="
# The baby-step/giant-step XOrder against the linear scan it replaced.
go test -race -count=1 -cpu 1,2 -run 'XOrder' ./internal/gf2poly/

# -cpu 1,2 runs every test at GOMAXPROCS 1 and 2, so no test can lean
# on single-core scheduling.  The splice package runs whole, so its
# oracle tests (TestDifferentialSevenCell at the tables' 7-cell
# geometry included) run under the race detector too.
echo "== go test -race (sim, splice, netsim) =="
go test -race -cpu 1,2 ./internal/sim/... ./internal/splice/... ./internal/netsim/...

echo "== go test -race (dist convolution oracle) =="
# The transform path of PMF.Convolve against the direct loop, and the
# histogram-only block collection against the sampler it replaced.
go test -race -cpu 1,2 -run 'Convolve|CollectBlockHistogram' ./internal/dist/ ./internal/sim/

echo "== go test -race (workers determinism) =="
go test -race -cpu 1,2 -run 'Deterministic' ./internal/sim/... ./internal/experiments/... ./internal/netsim/...

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== splice reports across worker counts (workers 1 vs 8, -race) =="
# sim.Run is a sim.Collect pass: the splice tables and the worst-file
# report (top-K heap merged across shards, path tie-break) must be
# byte-identical at any worker count.
splice_tables=table1,table2,table3,table7,table8,table9,table10,locality
go run -race ./cmd/paper -run "$splice_tables" -scale 0.02 -workers 1 > "$tmp/splice.w1"
go run -race ./cmd/paper -run "$splice_tables" -scale 0.02 -workers 8 > "$tmp/splice.w8"
diff "$tmp/splice.w1" "$tmp/splice.w8" || { echo "splice tables differ across worker counts"; exit 1; }
test -s "$tmp/splice.w1" || { echo "empty splice report"; exit 1; }
go run -race ./cmd/splicesim -profile smeg.stanford.edu:/u1 -scale 0.2 -worst 10 -workers 1 > "$tmp/splicesim.w1"
go run -race ./cmd/splicesim -profile smeg.stanford.edu:/u1 -scale 0.2 -worst 10 -workers 8 > "$tmp/splicesim.w8"
diff "$tmp/splicesim.w1" "$tmp/splicesim.w8" || { echo "splicesim -worst output differs across worker counts"; exit 1; }
grep -q "worst files by checksum misses" "$tmp/splicesim.w1" \
    || { echo "splicesim report missing the worst-file list"; exit 1; }

echo "== prefetching corpus walk and Parseval prediction (-race, GOMAXPROCS 1, 2, 4) =="
# FS.Walk generates ahead of its callback on min(GOMAXPROCS, 4)
# goroutines: it must yield serial Generate's paths and bytes in spec
# order, and an early callback error must leave no generator running.
# The Parseval SelfMatchPowers is held to the Convolve chain it
# replaced, and the rendered distribution reports to their goldens.
go test -race -count=1 -cpu 1,2,4 -run 'Walk|SelfMatchPowers|Distribution' ./internal/corpus/ ./internal/dist/ ./internal/experiments/

echo "== distribution reports across GOMAXPROCS (1 vs 4) =="
# The prefetch ring is sized by GOMAXPROCS, not -workers, so the
# Figure 2-3 and Table 4-6 reports are diffed across GOMAXPROCS.
dist_runs=figure2,figure3,table4,table5,table6
GOMAXPROCS=1 go run ./cmd/paper -run "$dist_runs" -scale 0.05 > "$tmp/dist.p1"
GOMAXPROCS=4 go run ./cmd/paper -run "$dist_runs" -scale 0.05 > "$tmp/dist.p4"
diff "$tmp/dist.p1" "$tmp/dist.p4" || { echo "distribution reports differ across GOMAXPROCS"; exit 1; }
grep -q "^Table 6:" "$tmp/dist.p1" || { echo "distribution report missing Table 6"; exit 1; }

echo "== netsim smoke (workers 1 vs 4 determinism under -race, full battery incl. correlated loss + dup) =="
go run -race ./cmd/paper -netsim -scale 0.02 -workers 1 > "$tmp/netsim.w1"
go run -race ./cmd/paper -netsim -scale 0.02 -workers 4 > "$tmp/netsim.w4"
diff "$tmp/netsim.w1" "$tmp/netsim.w4" || { echo "netsim output differs across worker counts"; exit 1; }
test -s "$tmp/netsim.w1" || { echo "empty netsim report"; exit 1; }
for ch in drop-ge drop-burst dup; do
    grep -q "shape\[tcp/$ch\]" "$tmp/netsim.w1" || { echo "netsim report missing channel $ch"; exit 1; }
done
grep -q "i.i.d. vs correlated cell loss at matched average rate" "$tmp/netsim.w1" \
    || { echo "netsim report missing the loss-contrast section"; exit 1; }
grep -q "end-to-end vs per-segment checksum placement" "$tmp/netsim.w1" \
    || { echo "netsim report missing the placement-contrast section"; exit 1; }
grep -q "raw vs lz-compressed payload" "$tmp/netsim.w1" \
    || { echo "netsim report missing the raw-vs-compressed contrast section"; exit 1; }
grep -q "^shape\[tcp+lz/burst\]" "$tmp/netsim.w1" \
    || { echo "netsim report missing the compressed-pass shape lines"; exit 1; }
# The raw TCP pass closes the retransmission loop: per-algorithm retrans
# tables, the residual-vs-miss-rate contrast over the matched-rate drop
# channels, and the greppable retrans[...] pin lines.
grep -q "retransmission loop (retry cap 8)" "$tmp/netsim.w1" \
    || { echo "netsim report missing the retransmission tables"; exit 1; }
grep -q "residual error vs miss rate, i.i.d. vs correlated loss at matched rate" "$tmp/netsim.w1" \
    || { echo "netsim report missing the residual-contrast section"; exit 1; }
grep -q "^retrans\[tcp/drop\]" "$tmp/netsim.w1" \
    || { echo "netsim report missing the retrans pin lines"; exit 1; }

echo "== netsim -dir corpus walk pin (internal/onescomp, -race) =="
# A real-directory-tree run over a small stable in-repo tree, with its
# shape lines pinned: any regression in the corpus walk, the sender
# packetization, or the trial seed chain shows up as a diff here.  The
# pinned numbers change whenever internal/onescomp's files change —
# update them alongside.
go run -race ./cmd/netsim -dir internal/onescomp -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 > "$tmp/netsim.dir"
grep "^shape" "$tmp/netsim.dir" > "$tmp/netsim.dir.shapes"
diff - "$tmp/netsim.dir.shapes" <<'SHAPES' || { echo "netsim -dir shape lines changed"; exit 1; }
shape[tcp/drop]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
shape[tcp/drop-ge]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
shape[tcp/drop-burst]: corrupted=1 weakest=tcp(0) tcp=0 crc32=0
shape[tcp/dup]: corrupted=54 weakest=tcp(0) tcp=0 crc32=0
SHAPES
# The per-segment placement lines are pinned the same way.  dup's
# seg_corrupted=53 < corrupted=54 is the prefix invariant: a delivered
# segment is the PDU prefix at the claimed length, so a PDU corrupted
# only past that prefix counts e2e but not per-segment.
grep "^placement" "$tmp/netsim.dir" > "$tmp/netsim.dir.placements"
diff - "$tmp/netsim.dir.placements" <<'PLACEMENTS' || { echo "netsim -dir placement lines changed"; exit 1; }
placement[tcp/drop]: seg_corrupted=4 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp/drop-ge]: seg_corrupted=4 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp/drop-burst]: seg_corrupted=1 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp/dup]: seg_corrupted=53 tcp=0 f255=0 crc32=0 header=0 trailer=0
PLACEMENTS

echo "== netsim -retrans pin (internal/onescomp, -race) =="
# The same walk with the retransmission loop closed.  Two things are
# pinned: the shape/placement lines must be byte-identical to the
# open-loop pins above (retry channel rolls come from the RetrySeed
# sub-stream after all primary RNG use, so -retrans cannot perturb an
# open-loop counter), and the retrans[...] lines themselves — per
# channel, the tcp/crc32/oracle transmission counts, residual bytes and
# cap-exhausted PDUs.
go run -race ./cmd/netsim -dir internal/onescomp -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 -retrans > "$tmp/netsim.ret"
grep -E "^(shape|placement)" "$tmp/netsim.ret" > "$tmp/netsim.ret.open"
grep -E "^(shape|placement)" "$tmp/netsim.dir" > "$tmp/netsim.dir.open"
diff "$tmp/netsim.dir.open" "$tmp/netsim.ret.open" \
    || { echo "-retrans perturbed the open-loop shape/placement pins"; exit 1; }
grep "^retrans" "$tmp/netsim.ret" > "$tmp/netsim.ret.lines"
diff - "$tmp/netsim.ret.lines" <<'RETRANS' || { echo "netsim -retrans pin lines changed"; exit 1; }
retrans[tcp/drop]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
retrans[tcp/drop-ge]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
retrans[tcp/drop-burst]: cap=8 pdus=106 tcp_tx=109 tcp_resid=0 crc32_tx=109 crc32_resid=0 oracle_tx=109 exhausted=0
retrans[tcp/dup]: cap=8 pdus=106 tcp_tx=221 tcp_resid=0 crc32_tx=221 crc32_resid=0 oracle_tx=221 exhausted=1
RETRANS

echo "== netsim single-placement pins (internal/onescomp, -retrans, -race) =="
# The same -retrans walk with one placement at a time.  Placement
# scoring consumes no RNG and each placement reads only its own sums, so
# a segment-only run must reproduce the pinned placement[...] lines and
# an e2e-only run the pinned shape[...] lines.
go run -race ./cmd/netsim -dir internal/onescomp -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 -retrans -placement segment > "$tmp/netsim.seg"
grep "^placement" "$tmp/netsim.seg" > "$tmp/netsim.seg.placements"
diff "$tmp/netsim.dir.placements" "$tmp/netsim.seg.placements" \
    || { echo "-placement segment changed the placement pin lines"; exit 1; }
go run -race ./cmd/netsim -dir internal/onescomp -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 -retrans -placement e2e > "$tmp/netsim.e2e"
grep "^shape" "$tmp/netsim.e2e" > "$tmp/netsim.e2e.shapes"
diff "$tmp/netsim.dir.shapes" "$tmp/netsim.e2e.shapes" \
    || { echo "-placement e2e changed the shape pin lines"; exit 1; }

echo "== netsim -compress pin (internal/onescomp, -race) =="
# The same walk with the lz payload stage on: the compressed payloads
# are roughly half the size (fewer cells per file, hence the lower
# counts), the labels gain the +lz suffix, and the ratio line in the
# header is pinned too — any drift in the compressor's output bytes,
# the per-file ratio accounting or the trial seed chain shows here.
go run -race ./cmd/netsim -dir internal/onescomp -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 -compress > "$tmp/netsim.lz"
grep "^lz payload stage" "$tmp/netsim.lz" > "$tmp/netsim.lz.ratio"
diff - "$tmp/netsim.lz.ratio" <<'RATIO' || { echo "netsim -compress ratio line changed"; exit 1; }
lz payload stage: 2 files, 13,295 -> 7,086 bytes, ratio min=47.420% mean=53.298% max=63.550%
RATIO
grep "^shape" "$tmp/netsim.lz" > "$tmp/netsim.lz.shapes"
diff - "$tmp/netsim.lz.shapes" <<'SHAPES' || { echo "netsim -compress shape lines changed"; exit 1; }
shape[tcp+lz/drop]: corrupted=1 weakest=tcp(0) tcp=0 crc32=0
shape[tcp+lz/drop-ge]: corrupted=3 weakest=tcp(0) tcp=0 crc32=0
shape[tcp+lz/drop-burst]: corrupted=1 weakest=tcp(0) tcp=0 crc32=0
shape[tcp+lz/dup]: corrupted=30 weakest=tcp(0) tcp=0 crc32=0
SHAPES
grep "^placement" "$tmp/netsim.lz" > "$tmp/netsim.lz.placements"
diff - "$tmp/netsim.lz.placements" <<'PLACEMENTS' || { echo "netsim -compress placement lines changed"; exit 1; }
placement[tcp+lz/drop]: seg_corrupted=1 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp+lz/drop-ge]: seg_corrupted=3 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp+lz/drop-burst]: seg_corrupted=1 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp+lz/dup]: seg_corrupted=29 tcp=0 f255=0 crc32=0 header=0 trailer=0
PLACEMENTS

echo "== cksumd service smoke (scenario run, metrics scrape, graceful shutdown, -race) =="
# The service path must reproduce the batch pin lines above: cksumd runs
# the same onescomp scenario as a verification stream, the /metrics
# scrape must carry the identical shape/placement lines, and SIGINT must
# drain and exit 0 under the race detector.
go build -race -o "$tmp/cksumd" ./cmd/cksumd
cat > "$tmp/onescomp.scenario.json" <<'EOF'
{"name":"ci-smoke","dir":"internal/onescomp","channels":["drop","drop-ge","drop-burst","dup"],"retrans":true,"trials":2,"workers":2}
EOF
"$tmp/cksumd" "$tmp/onescomp.scenario.json" > "$tmp/cksumd.log" 2>&1 &
ckpid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|^cksumd: metrics on \(http://[^ ]*\)$|\1|p' "$tmp/cksumd.log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "cksumd never reported its metrics address"; kill "$ckpid" 2>/dev/null; exit 1; }
for _ in $(seq 1 300); do
    "$tmp/cksumd" -scrape "$addr" > "$tmp/cksumd.metrics" 2>/dev/null || true
    grep -q 'cksumd_streams{state="done"} 1' "$tmp/cksumd.metrics" && break
    sleep 0.1
done
grep '^stream\[0\] shape' "$tmp/cksumd.metrics" > "$tmp/cksumd.shapes" || true
diff - "$tmp/cksumd.shapes" <<'SHAPES' || { echo "cksumd scrape shape lines differ from the batch pins"; kill "$ckpid" 2>/dev/null; exit 1; }
stream[0] shape[tcp/drop]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
stream[0] shape[tcp/drop-ge]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
stream[0] shape[tcp/drop-burst]: corrupted=1 weakest=tcp(0) tcp=0 crc32=0
stream[0] shape[tcp/dup]: corrupted=54 weakest=tcp(0) tcp=0 crc32=0
SHAPES
grep -q 'cksumd_trials_total{stream="0",channel="drop"} 4' "$tmp/cksumd.metrics" \
    || { echo "cksumd metrics missing the per-channel trial counter"; kill "$ckpid" 2>/dev/null; exit 1; }
# The scenario closes the retransmission loop, so the scrape must carry
# the retrans[...] pin lines — byte-identical to the batch -retrans pins.
grep '^stream\[0\] retrans' "$tmp/cksumd.metrics" > "$tmp/cksumd.retrans" || true
diff - "$tmp/cksumd.retrans" <<'RETRANS' || { echo "cksumd scrape retrans lines differ from the batch pins"; kill "$ckpid" 2>/dev/null; exit 1; }
stream[0] retrans[tcp/drop]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
stream[0] retrans[tcp/drop-ge]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
stream[0] retrans[tcp/drop-burst]: cap=8 pdus=106 tcp_tx=109 tcp_resid=0 crc32_tx=109 crc32_resid=0 oracle_tx=109 exhausted=0
stream[0] retrans[tcp/dup]: cap=8 pdus=106 tcp_tx=221 tcp_resid=0 crc32_tx=221 crc32_resid=0 oracle_tx=221 exhausted=1
RETRANS
kill -INT "$ckpid"
wait "$ckpid" || { echo "cksumd did not exit 0 after SIGINT"; exit 1; }

echo "== bench smoke (splice + dist + netsim, scale 0.02) =="
go run ./cmd/paper -benchjson "$tmp/BENCH_splice.json" -scale 0.02 -benchiters 1
go run ./cmd/paper -benchdistjson "$tmp/BENCH_dist.json" -scale 0.02 -benchiters 1
go run ./cmd/paper -benchnetsimjson "$tmp/BENCH_netsim.json" -scale 0.02 -benchiters 1
for f in BENCH_splice.json BENCH_dist.json BENCH_netsim.json; do
    test -s "$tmp/$f" || { echo "missing $f"; exit 1; }
done
grep -q '"retrans": true' "$tmp/BENCH_netsim.json" \
    || { echo "BENCH_netsim.json missing the retransmission-loop records"; exit 1; }
grep -q '"retrans_mean_tx_per_pdu"' "$tmp/BENCH_netsim.json" \
    || { echo "BENCH_netsim.json retrans records missing the tcp-lane metrics"; exit 1; }

echo "== benchalgo smoke (every registry algorithm emits a record) =="
go run ./cmd/paper -benchalgojson "$tmp/BENCH_algo.json" -benchiters 1
test -s "$tmp/BENCH_algo.json" || { echo "missing BENCH_algo.json"; exit 1; }
for a in $(go run ./cmd/cksum -a list); do
    grep -q "\"algo\": \"$a\"" "$tmp/BENCH_algo.json" \
        || { echo "BENCH_algo.json missing algorithm $a"; exit 1; }
done
grep -q '"kernel_speedup_vs_slicing8"' "$tmp/BENCH_algo.json" \
    || { echo "BENCH_algo.json missing the kernel-speedup baseline"; exit 1; }

echo "== census smoke (polynomial-selection census, workers 1 vs 4 determinism, -race) =="
# The census report — both lanes, ranks and the inversion verdict — must
# be byte-identical at any worker count, and its greppable census[...]
# lines are pinned: any drift in the gf2poly spectrum math, the
# generic-width CRC tables, the error-class mix or the injection seed
# chain shows up as a diff here.
go run -race ./cmd/paper -census -scale 0.02 -workers 1 > "$tmp/census.w1"
go run -race ./cmd/paper -census -scale 0.02 -workers 4 > "$tmp/census.w4"
diff "$tmp/census.w1" "$tmp/census.w4" || { echo "census output differs across worker counts"; exit 1; }
grep "^census\[" "$tmp/census.w1" > "$tmp/census.pins"
diff - "$tmp/census.pins" <<'CENSUS' || { echo "census pin lines changed"; exit 1; }
census[mix]: total=1760 len=295 w1=0 w2=639 w3=0 burst=631 multi=195
census[crc32]: w=32 a2=0 a3=0 ord=0 uniform=2.33e-10 bsc=0 measured=1.48e-10 miss=0/1760 ranks=1/1/1
census[crc32c]: w=32 a2=0 a3=0 ord=0 uniform=2.33e-10 bsc=0 measured=1.48e-10 miss=0/1760 ranks=1/1/1
census[crc32k]: w=32 a2=0 a3=0 ord=114695 uniform=2.33e-10 bsc=0 measured=1.48e-10 miss=0/1760 ranks=1/1/1
census[crc32k2]: w=32 a2=0 a3=0 ord=65538 uniform=2.33e-10 bsc=0 measured=1.48e-10 miss=0/1760 ranks=1/1/1
census[crc24a]: w=24 a2=0 a3=0 ord=8388607 uniform=5.96e-08 bsc=0 measured=3.8e-08 miss=0/1760 ranks=5/5/1
census[crc24b]: w=24 a2=0 a3=0 ord=8388607 uniform=5.96e-08 bsc=0 measured=3.8e-08 miss=0/1760 ranks=5/5/1
census[crc24c]: w=24 a2=0 a3=0 ord=28086 uniform=5.96e-08 bsc=0 measured=3.8e-08 miss=0/1760 ranks=5/5/1
census[crc16-xmodem]: w=16 a2=0 a3=0 ord=32767 uniform=1.53e-05 bsc=0 measured=9.72e-06 miss=0/1760 ranks=8/8/1
census[crc11]: w=11 a2=1 a3=699050 ord=2047 uniform=0.000488 bsc=5.78e-07 measured=0.000311 miss=0/1760 ranks=9/9/1
census[crc6]: w=6 a2=32272 a3=22363729 ord=63 uniform=0.0156 bsc=0.000281 measured=0.0155 miss=9/1760 ranks=10/10/10
census[inversion]: none - the uniform-assumption ranking survived the measured corpus distributions
CENSUS

echo "== benchcensus smoke (one record per candidate, both lanes) =="
go run ./cmd/paper -benchcensusjson "$tmp/BENCH_census.json" -scale 0.02
test -s "$tmp/BENCH_census.json" || { echo "missing BENCH_census.json"; exit 1; }
[ "$(grep -c '"name": "census_' "$tmp/BENCH_census.json")" -eq 10 ] \
    || { echo "BENCH_census.json must carry one record per slate candidate"; exit 1; }
for k in crc32 crc32c crc32k crc32k2 crc24a crc24b crc24c crc16-xmodem crc11 crc6; do
    grep -q "\"name\": \"census_$k\"" "$tmp/BENCH_census.json" \
        || { echo "BENCH_census.json missing candidate $k"; exit 1; }
done
for field in uniform_p bsc_p measured_p miss_rate rank_uniform rank_injected inversions; do
    grep -q "\"$field\"" "$tmp/BENCH_census.json" \
        || { echo "BENCH_census.json records missing the $field field"; exit 1; }
done

echo "CI OK"
