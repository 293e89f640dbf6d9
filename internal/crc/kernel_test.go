package crc

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"testing"
)

// stdlibParams are the parameterizations the stdlib kernel accepts.
func stdlibParams() []Params { return []Params{CRC32, CRC32C} }

// kernelSink keeps benchmarked and alloc-counted checksums live.
var kernelSink uint64

// TestKernelsDifferentialOracle checks every kernel against the scalar
// engine across every catalogued parameterization on random lengths
// from 0 to 64 KiB, sliding the data through all 8 alignments of the
// 8-byte bulk loop, and pins the CRC-32/CRC-32C results to the
// standard library's hash/crc32.
func TestKernelsDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	base := make([]byte, 64<<10+8)
	for i := range base {
		base[i] = byte(rng.Uint32())
	}
	lengths := []int{0, 1, 7, 8, 9, 16, 48, 300, 316, 1500, 2416, 2500}
	for i := 0; i < 12; i++ {
		lengths = append(lengths, rng.IntN(64<<10))
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, p := range Catalog() {
		tab := New(p)
		for _, kn := range tab.Kernels() {
			for _, n := range lengths {
				for align := 0; align < 8; align++ {
					data := base[align : align+n]
					want := tab.finalizeReg(tab.updateScalar(tab.initReg, data))
					k, _ := kernelByName(kn)
					got := tab.finalizeReg(tab.kernelUpdate(k, tab.initReg, data))
					if got != want {
						t.Fatalf("%s/%s: len=%d align=%d: %#x != scalar %#x",
							p.Name, kn, n, align, got, want)
					}
					switch p.Name {
					case "CRC-32":
						if std := uint64(crc32.ChecksumIEEE(data)); got != std {
							t.Fatalf("CRC-32/%s len=%d align=%d: %#x != hash/crc32 %#x", kn, n, align, got, std)
						}
					case "CRC-32C":
						if std := uint64(crc32.Checksum(data, castagnoli)); got != std {
							t.Fatalf("CRC-32C/%s len=%d align=%d: %#x != hash/crc32 %#x", kn, n, align, got, std)
						}
					}
				}
			}
		}
	}
}

// TestKernelShortInputs walks the dispatch tail path over every length
// from 0 through 64 bytes — the 0–7 byte sub-word tail is the classic
// off-by-one surface for wide-word CRC engines — comparing each kernel
// against the bitwise reference, at every alignment.
func TestKernelShortInputs(t *testing.T) {
	base := []byte("\x00\xff\x55\xaaThe quick brown fox jumps over the lazy dog 0123456789abcdef!!")
	for _, p := range stdlibParams() {
		tab := New(p)
		for _, kn := range tab.Kernels() {
			k, _ := kernelByName(kn)
			for n := 0; n <= 56; n++ {
				for align := 0; align < 8; align++ {
					data := base[align : align+n]
					want := p.BitwiseChecksum(data)
					got := tab.finalizeReg(tab.kernelUpdate(k, tab.initReg, data))
					if got != want {
						t.Fatalf("%s/%s len=%d align=%d: %#x != bitwise %#x", p.Name, kn, n, align, got, want)
					}
				}
			}
		}
	}
}

// TestSelectedKernelMatchesOracle pins the auto-selection contract CI
// relies on: whatever kernel New picked verifies cleanly against the
// scalar engine on the pinned vectors, and the choice is stable within
// a process (the per-Params cache).
func TestSelectedKernelMatchesOracle(t *testing.T) {
	for _, p := range Catalog() {
		tab := New(p)
		if err := tab.VerifyKernel(tab.Kernel()); err != nil {
			t.Errorf("%s: selected kernel fails the oracle: %v", p.Name, err)
		}
		if again := New(p); again.Kernel() != tab.Kernel() {
			t.Errorf("%s: selection not stable within process: %s then %s", p.Name, tab.Kernel(), again.Kernel())
		}
	}
	// The fixed order resolves hash/crc32's two polynomials to stdlib
	// and every other catalog entry — the census slate included — to
	// slicing8.
	for _, p := range Catalog() {
		want := "slicing8"
		if p.Width == 32 && p.RefIn && (p.Poly == CRC32.Poly || p.Poly == CRC32C.Poly) {
			want = "stdlib"
		}
		if got := New(p).Kernel(); got != want {
			t.Errorf("%s selected %s, want %s", p.Name, got, want)
		}
	}
}

// TestFailedKernelFallsThrough pins the fixed order's safety rule: an
// engine that disagrees with the scalar oracle is skipped for the next
// one and refused by SetKernel, never used.
func TestFailedKernelFallsThrough(t *testing.T) {
	tab := New(CRC32)
	tab.std = crc32.MakeTable(crc32.Castagnoli) // wrong polynomial
	if got := tab.firstVerified(); got != kernelSlicing8 {
		t.Errorf("broken stdlib engine: selection = %s, want slicing8", kernelNames[got])
	}
	if err := tab.SetKernel("stdlib"); err == nil {
		t.Error("SetKernel(stdlib) accepted an engine that fails the oracle")
	}
}

// TestSetKernel covers the override surface: every available kernel
// takes, unknown names and unsupported kernels error, and "auto"
// restores the fixed-order choice.
func TestSetKernel(t *testing.T) {
	tab := New(CRC32)
	for _, kn := range tab.Kernels() {
		if err := tab.SetKernel(kn); err != nil {
			t.Fatalf("SetKernel(%s): %v", kn, err)
		}
		if tab.Kernel() != kn {
			t.Fatalf("Kernel() = %s after SetKernel(%s)", tab.Kernel(), kn)
		}
	}
	if err := tab.SetKernel("simd"); err == nil {
		t.Error("SetKernel(simd) succeeded")
	}
	if err := tab.SetKernel("auto"); err != nil {
		t.Errorf("SetKernel(auto): %v", err)
	}
	if tab.Kernel() != "stdlib" {
		t.Errorf("Kernel() = %s after SetKernel(auto), want stdlib", tab.Kernel())
	}
	t16 := New(CRC16)
	if err := t16.SetKernel("stdlib"); err == nil {
		t.Error("SetKernel(stdlib) on CRC-16 succeeded; hash/crc32 has no CRC-16")
	}
	if len(t16.Kernels()) != 2 {
		t.Errorf("CRC-16 kernels = %v, want scalar+slicing8 only", t16.Kernels())
	}
}

// TestKernelStreamingDigest checks that a Digest fed arbitrary chunk
// sizes through each kernel agrees with the one-shot checksum: the
// stdlib engine must compose across Write boundaries via the raw
// register exactly like the table paths do, including chunks on both
// sides of its 64-byte IEEE floor.
func TestKernelStreamingDigest(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	data := make([]byte, 20000)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	for _, p := range stdlibParams() {
		tab := New(p)
		want := tab.Checksum(data)
		for _, kn := range tab.Kernels() {
			if err := tab.SetKernel(kn); err != nil {
				t.Fatal(err)
			}
			d := tab.NewDigest()
			for off := 0; off < len(data); {
				n := 1 + rng.IntN(128)
				if rng.IntN(4) == 0 {
					n = 1 + rng.IntN(4000)
				}
				if off+n > len(data) {
					n = len(data) - off
				}
				d.Write(data[off : off+n])
				off += n
			}
			if got := d.CRC(); got != want {
				t.Errorf("%s/%s: streamed %#x != one-shot %#x", p.Name, kn, got, want)
			}
		}
		tab.SetKernel("auto")
	}
}

// TestKernelZeroAlloc pins the zero-allocation contract the netsim
// trial loop relies on: every kernel checksums cell-sized, MTU-sized
// and bulk input without allocating.
func TestKernelZeroAlloc(t *testing.T) {
	for _, p := range stdlibParams() {
		tab := New(p)
		for _, kn := range tab.Kernels() {
			kid, _ := kernelByName(kn)
			for _, n := range []int{48, 1500, 64 << 10} {
				data := pinnedBuf()[:n]
				allocs := testing.AllocsPerRun(20, func() {
					kernelSink ^= tab.kernelUpdate(kid, tab.initReg, data)
				})
				if allocs > 0 {
					t.Errorf("%s/%s: %.1f allocs per %d-byte checksum, want 0", p.Name, kn, allocs, n)
				}
			}
		}
	}
}

// TestKernelConcurrent hammers one shared table from many goroutines
// (the registry's usage pattern: netsim workers share algo instances).
// Run under -race this doubles as the kernel data-race gate.
func TestKernelConcurrent(t *testing.T) {
	data := pinnedBuf()
	for _, p := range stdlibParams() {
		tab := New(p)
		for _, kn := range tab.Kernels() {
			kid, _ := kernelByName(kn)
			want := tab.finalizeReg(tab.updateScalar(tab.initReg, data))
			done := make(chan error, 8)
			for g := 0; g < 8; g++ {
				go func() {
					for i := 0; i < 25; i++ {
						if got := tab.finalizeReg(tab.kernelUpdate(kid, tab.initReg, data)); got != want {
							done <- fmt.Errorf("%s/%s: concurrent checksum %#x != %#x", p.Name, kernelNames[kid], got, want)
							return
						}
					}
					done <- nil
				}()
			}
			for g := 0; g < 8; g++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzKernels compares every kernel on arbitrary input against the
// scalar engine, and the CRC-32/CRC-32C results against hash/crc32.
// Seeds cover the empty input, the catalog check string, a sub-word
// tail, both sides of the stdlib IEEE floor, and bulk inputs long
// enough for hash/crc32's folding loops.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("123456789"))
	f.Add(pinnedBuf()[:7])
	f.Add(pinnedBuf()[:63]) // one byte below the IEEE floor
	f.Add(pinnedBuf()[:64])
	f.Add(pinnedBuf()[:3001])
	f.Add(pinnedBuf()[:5000])
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range stdlibParams() {
			tab := New(p)
			want := tab.finalizeReg(tab.updateScalar(tab.initReg, data))
			for _, kn := range tab.Kernels() {
				k, _ := kernelByName(kn)
				if got := tab.finalizeReg(tab.kernelUpdate(k, tab.initReg, data)); got != want {
					t.Fatalf("%s/%s: len=%d: %#x != scalar %#x", p.Name, kn, len(data), got, want)
				}
			}
			var std uint64
			switch p.Name {
			case "CRC-32":
				std = uint64(crc32.ChecksumIEEE(data))
			case "CRC-32C":
				std = uint64(crc32.Checksum(data, castagnoli))
			}
			if want != std {
				t.Fatalf("%s: len=%d: scalar %#x != hash/crc32 %#x", p.Name, len(data), want, std)
			}
		}
	})
}

// BenchmarkKernels times the engines on cell, MTU and bulk input; the
// BENCH_algo.json emitter is the committed record, this is the local
// view.
func BenchmarkKernels(b *testing.B) {
	for _, p := range stdlibParams() {
		tab := New(p)
		for _, size := range []int{48, 1500, 64 << 10} {
			data := pinnedBuf()[:size]
			for _, kn := range tab.Kernels() {
				k, _ := kernelByName(kn)
				b.Run(fmt.Sprintf("%s/%s/%d", p.Name, kn, size), func(b *testing.B) {
					b.SetBytes(int64(size))
					for i := 0; i < b.N; i++ {
						kernelSink ^= tab.kernelUpdate(k, tab.initReg, data)
					}
				})
			}
		}
	}
}
