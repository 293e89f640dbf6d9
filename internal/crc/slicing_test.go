package crc

import (
	"hash/crc32"
	"math/rand/v2"
	"testing"
)

func TestSlicingMatchesScalarEverywhere(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 30))
	for _, p := range Catalog() {
		tab := New(p)
		// Every length around the 8-byte and 16-byte boundaries, plus
		// bulk sizes, at every alignment of initial register state.
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 48, 100, 1000, 4097} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			reg := tab.initReg
			if rng.Uint32()&1 == 1 {
				reg = tab.updateScalar(reg, []byte{0xA5, 0x5A, 0x00})
			}
			if got, want := tab.update(reg, data), tab.updateScalar(reg, data); got != want {
				t.Fatalf("%s len %d: slicing %#x != scalar %#x", p.Name, n, got, want)
			}
		}
	}
}

func TestSlicingCRC32AgainstStdlibBulk(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 31))
	tab := New(CRC32)
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	if got, want := uint32(tab.Checksum(data)), crc32.ChecksumIEEE(data); got != want {
		t.Fatalf("1 MiB: ours %#08x, stdlib %#08x", got, want)
	}
}

func BenchmarkSlicingVsScalar(b *testing.B) {
	tab := New(CRC32)
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i * 17)
	}
	b.Run("slicing8", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		reg := tab.initReg
		for i := 0; i < b.N; i++ {
			reg = tab.update(reg, data)
		}
		benchSink = reg
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		reg := tab.initReg
		for i := 0; i < b.N; i++ {
			reg = tab.updateScalar(reg, data)
		}
		benchSink = reg
	})
}

var benchSink uint64
