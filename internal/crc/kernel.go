package crc

import (
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// The kernel layer: every Table carries one of three interchangeable
// bulk engines — the byte-at-a-time scalar loop (the oracle),
// slicing-by-8, and the standard library's hash/crc32 (CLMUL or SSE4.2
// where the CPU has them) for the two 32-bit polynomials it implements.
// New picks the first engine, in the fixed order stdlib, slicing8,
// scalar, that the parameterization supports and that verifies against
// the scalar engine on a pinned vector set; an engine that fails
// verification is skipped, never used.  Every consumer of a Table
// (splice enumeration, sim.Collect, netsim trials) gets that engine
// with zero call-site changes.  Selection is cached per Params and
// overridable through the REALSUM_CRC_KERNEL environment variable or
// Table.SetKernel (the -kernel flag on cmd/paper and cmd/cksum) for
// reproducible measurement.

// kernelID names one bulk engine.
type kernelID uint8

const (
	kernelSlicing8 kernelID = iota
	kernelScalar
	kernelStdlib
	numKernels
)

var kernelNames = [numKernels]string{"slicing8", "scalar", "stdlib"}

// kernelOrder is the selection preference: the first available engine
// that verifies wins.
var kernelOrder = [numKernels]kernelID{kernelStdlib, kernelSlicing8, kernelScalar}

// stdlibIEEEMin is the shortest input the stdlib engine hands to
// hash/crc32 for the IEEE polynomial.  Below 64 bytes hash/crc32 runs
// its own slicing-by-8 rather than CLMUL, which is slower than ours
// (48 B on a 2-vCPU Xeon: 34 ns in-repo vs 53 ns in hash/crc32);
// Castagnoli's SSE4.2 path wins at every length, so it has no floor.
const stdlibIEEEMin = 64

// KernelEnv is the environment variable that forces a kernel by name
// for every subsequently built Table ("auto" or empty restores the
// fixed order; a kernel unavailable for some parameterization falls
// back to slicing-by-8 there).
const KernelEnv = "REALSUM_CRC_KERNEL"

// KernelNames lists every kernel the engine knows, selected or not.
func KernelNames() []string { return append([]string(nil), kernelNames[:]...) }

func kernelByName(name string) (kernelID, bool) {
	for id, n := range kernelNames {
		if n == name {
			return kernelID(id), true
		}
	}
	return 0, false
}

// stdlibTable returns hash/crc32's table for p, or nil when p is not
// one of the two parameterizations hash/crc32 accelerates: reflected,
// width 32, poly IEEE or Castagnoli.  Init and XorOut do not matter —
// the engine only advances a raw register.
func stdlibTable(p Params) *crc32.Table {
	if p.Width != 32 || !p.RefIn {
		return nil
	}
	switch p.Poly {
	case 0x04C11DB7:
		return crc32.IEEETable
	case 0x1EDC6F41:
		return crc32.MakeTable(crc32.Castagnoli)
	}
	return nil
}

// Kernel returns the name of the bulk engine this table dispatches to.
func (t *Table) Kernel() string { return kernelNames[t.kern] }

// Kernels returns the kernels available for this table's
// parameterization: always slicing8 and scalar, plus stdlib for
// CRC-32 and CRC-32C.
func (t *Table) Kernels() []string {
	out := []string{}
	for k := kernelID(0); k < numKernels; k++ {
		if t.hasKernel(k) {
			out = append(out, kernelNames[k])
		}
	}
	return out
}

func (t *Table) hasKernel(k kernelID) bool { return k != kernelStdlib || t.std != nil }

// SetKernel forces the table onto the named kernel after differentially
// verifying it against the scalar engine on the pinned vectors; "auto"
// restores the fixed-order choice.  It errors on unknown names, on
// kernels the parameterization does not support, and on verification
// mismatch.  Reconfigure before sharing the table across goroutines:
// the kernel field itself is written unsynchronized.
func (t *Table) SetKernel(name string) error {
	if name == "auto" || name == "" {
		t.kern = t.selectKernel()
		return nil
	}
	k, ok := kernelByName(name)
	if !ok {
		return fmt.Errorf("crc: unknown kernel %q (known: %v)", name, KernelNames())
	}
	if !t.hasKernel(k) {
		return fmt.Errorf("crc: kernel %q unavailable for %s (hash/crc32 implements only CRC-32 and CRC-32C)", name, t.params.Name)
	}
	if err := t.verifyKernel(k); err != nil {
		return err
	}
	t.kern = k
	return nil
}

// VerifyKernel differentially checks the named kernel against the
// scalar oracle on the pinned vector set (all 8 alignments of the bulk
// loop, lengths from 0 through 64 KiB including the stdlib floor, two
// register states) and returns the first mismatch.
func (t *Table) VerifyKernel(name string) error {
	k, ok := kernelByName(name)
	if !ok {
		return fmt.Errorf("crc: unknown kernel %q", name)
	}
	return t.verifyKernel(k)
}

// kernelUpdate advances a raw register over data with a specific
// kernel.  The stdlib engine hands IEEE inputs below its floor to the
// slicing path, which in turn hands short inputs to the scalar loop —
// the dispatch every length from 0 up must survive (see
// TestKernelShortInputs).
func (t *Table) kernelUpdate(k kernelID, reg uint64, data []byte) uint64 {
	switch k {
	case kernelScalar:
		return t.updateScalar(reg, data)
	case kernelStdlib:
		if len(data) >= t.stdMin {
			// hash/crc32 complements on entry and exit around the same
			// reflected register this table keeps.
			return uint64(^crc32.Update(^uint32(reg), t.std, data))
		}
	}
	if len(data) >= 16 {
		return t.updateSlicing(reg, data)
	}
	return t.updateScalar(reg, data)
}

// ---------------------------------------------------------------------
// Pinned verification vectors.

// pinnedBuf is 64 KiB + 64 of fixed splitmix64 output: every
// verification vector is a slice of it, so the oracle comparison is
// reproducible across runs and machines.
var pinnedBuf = sync.OnceValue(func() []byte {
	b := make([]byte, 64<<10+64)
	s := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < len(b); i += 8 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8; j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
	return b
})

// pinnedLengths covers the dispatch seams: every sub-word tail 0–9,
// the scalar/slicing boundary at 16, the stdlib IEEE floor at 64,
// packet-ish sizes, and full 64 KiB bulk.
var pinnedLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 255, 256, 1500, 4096, 64 << 10}

func (t *Table) verifyKernel(k kernelID) error {
	buf := pinnedBuf()
	regs := [2]uint64{t.initReg, t.updateScalar(t.initReg, buf[:17])}
	for i, n := range pinnedLengths {
		off := i & 7 // walk the bulk loop through all 8 alignments
		data := buf[off : off+n]
		for _, reg := range regs {
			want := t.updateScalar(reg, data)
			if got := t.kernelUpdate(k, reg, data); got != want {
				return fmt.Errorf("crc: kernel %s diverges from scalar oracle on %s (len=%d align=%d reg=%#x: got %#x want %#x)",
					kernelNames[k], t.params.Name, n, off, reg, got, want)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Selection: the first engine in kernelOrder that verifies.

// selCache memoizes auto-selection per Params, so table-heavy callers
// (tests, the census, per-worker AAL5 tables) verify each
// parameterization at most once per process.
var selCache sync.Map // Params -> kernelID

func (t *Table) selectKernel() kernelID {
	if name := os.Getenv(KernelEnv); name != "" && name != "auto" {
		k, ok := kernelByName(name)
		if !ok {
			panic(fmt.Sprintf("crc: %s=%q names no kernel (known: %v)", KernelEnv, name, KernelNames()))
		}
		if !t.hasKernel(k) {
			return kernelSlicing8
		}
		if err := t.verifyKernel(k); err != nil {
			panic(err)
		}
		return k
	}
	if k, ok := selCache.Load(t.params); ok {
		return k.(kernelID)
	}
	best := t.firstVerified()
	selCache.Store(t.params, best)
	return best
}

// firstVerified walks kernelOrder and returns the first engine the
// table supports that agrees with the scalar oracle.  Scalar is the
// oracle itself, so the walk always ends.
func (t *Table) firstVerified() kernelID {
	for _, k := range kernelOrder {
		if t.hasKernel(k) && (k == kernelScalar || t.verifyKernel(k) == nil) {
			return k
		}
	}
	return kernelScalar
}
