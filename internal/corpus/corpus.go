// Package corpus generates deterministic synthetic "real data" — the
// substitute for the 1995 UNIX file systems at NSC, SICS and Stanford
// the paper scanned.
//
// The paper attributes every measured effect to specific value-level
// structure in file-system data: heavy skew toward zero bytes, long runs
// of 0x00 and 0xFF, character data with English letter frequencies,
// repeated lines at power-of-two strides, and strong locality (adjacent
// blocks drawn from the same distribution).  Each generator in this
// package reproduces one of the file populations the paper names,
// including the §5.5 pathological cases: black-and-white PBM bitmaps,
// hex-encoded PostScript bitmaps, BinHex documents, gmon.out profiles
// and word-processor files with alternating 0x00/0xFF runs.
//
// Everything is seeded and reproducible: the same profile always yields
// byte-identical file systems, so every table in EXPERIMENTS.md
// regenerates exactly.
package corpus

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// FileType identifies which population a synthetic file is drawn from.
type FileType int

const (
	// EnglishText is prose with English letter and word frequencies.
	EnglishText FileType = iota
	// CSource is C program text: includes, comments, functions.
	CSource
	// Executable is an ELF-like binary image: machine-code-biased text
	// section, zero-run data section, string and symbol tables.
	Executable
	// PBMImage is an 8-bit black-and-white raster (every payload byte
	// 0x00 or 0xFF) — the plot files that destroy Fletcher-255 (§5.5).
	PBMImage
	// PSHexBitmap is hex-encoded PostScript bitmap data with a
	// power-of-two line width — §5.5's font-definition pathology.
	PSHexBitmap
	// BinHex is a BinHex-encoded document: 64-byte lines of a restricted
	// alphabet with many near-identical lines.
	BinHex
	// GmonOut is Unix gmon.out profiling data: mostly zero words with a
	// scattering of small, frequently identical counters.
	GmonOut
	// WordProcessor is the PC word-processor format of §5.5: sections of
	// text separated by ~200-byte runs of 0x00 then 0xFF.
	WordProcessor
	// Compressed is LZW-compressed text — near-uniform bytes, the
	// Table 7 population.
	Compressed
	// LogFile is a system log: highly repetitive timestamped lines.
	LogFile
	// UniformRandom is pure uniformly distributed bytes — the baseline
	// all the theoretical failure-rate predictions assume.
	UniformRandom
	// TarArchive is a USTAR archive of small text/source members:
	// 512-byte headers padded with zeros between runs of member data.
	TarArchive
	// MailSpool is an mbox spool: repetitive RFC 822 headers followed
	// by prose bodies.
	MailSpool
	// CoreDump is a process image: huge zero regions, repeated pointer
	// patterns and fragments of machine code and strings.
	CoreDump

	numFileTypes int = iota
)

var fileTypeNames = [...]string{
	"text", "csrc", "exec", "pbm", "pshex",
	"binhex", "gmon", "wordproc", "compressed", "log", "random",
	"tar", "mbox", "core",
}

func (t FileType) String() string {
	if int(t) < len(fileTypeNames) {
		return fileTypeNames[t]
	}
	return fmt.Sprintf("FileType(%d)", int(t))
}

// extensions used when materializing files to disk or naming specs.
var fileTypeExt = [...]string{
	".txt", ".c", "", ".pgm", ".ps", ".hqx", ".out", ".doc", ".Z", ".log", ".bin",
	".tar", "", "",
}

// AllFileTypes lists every synthetic population, in declaration order.
func AllFileTypes() []FileType {
	out := make([]FileType, numFileTypes)
	for i := range out {
		out[i] = FileType(i)
	}
	return out
}

// FileSpec describes one synthetic file.  Content is produced on demand
// by Generate so whole-file-system walks need only one file in memory.
type FileSpec struct {
	Path string
	Type FileType
	Size int
	seed uint64
}

// NewFileSpec builds a standalone spec for direct generation, outside
// any Profile — used by the data-census experiment and tooling.
func NewFileSpec(t FileType, size int, seed uint64) FileSpec {
	return FileSpec{Path: "standalone" + fileTypeExt[t], Type: t, Size: size, seed: seed}
}

// Generate produces the file's contents.  It is deterministic: the same
// spec always yields the same bytes.
func (s FileSpec) Generate() []byte {
	rng := rand.New(rand.NewPCG(s.seed, uint64(s.Type)<<32|uint64(s.Size)))
	return generators[s.Type](rng, s.Size)
}

// FS is a synthetic file system: an ordered list of file specs.
type FS struct {
	Name  string
	Specs []FileSpec
}

// Walk invokes fn for every file in spec order, on the caller's
// goroutine, and stops at the first error fn returns.
//
// Contents are generated ahead of fn by min(GOMAXPROCS, maxGenerators)
// goroutines into a ring of prefetchDepth slots per generator, so
// generation overlaps fn and itself; every spec carries its own seed,
// so the bytes and their order are those of a serial walk.  Every
// generator has exited by the time Walk returns.
func (fs *FS) Walk(fn func(path string, data []byte) error) error {
	nw := min(runtime.GOMAXPROCS(0), maxGenerators, len(fs.Specs))
	// File i travels in slot i mod len(ring).  A generator takes a credit
	// before it claims an index and Walk returns one after taking a file,
	// so at most len(ring) files are claimed but not taken: file i's slot
	// is empty when the file is ready, and no slot send blocks.
	ring := make([]chan []byte, prefetchDepth*nw)
	credits := make(chan struct{}, len(ring))
	for i := range ring {
		ring[i] = make(chan []byte, 1)
		credits <- struct{}{}
	}
	stop := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for range nw {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-credits:
				case <-stop:
					return
				}
				// select picks at random among ready cases, so a credit
				// may win over a closed stop; check again before claiming
				// a file nobody will read.
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1) - 1)
				if i >= len(fs.Specs) {
					return
				}
				ring[i%len(ring)] <- fs.Specs[i].Generate()
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	for i, s := range fs.Specs {
		data := <-ring[i%len(ring)]
		credits <- struct{}{}
		if err := fn(s.Path, data); err != nil {
			return err
		}
	}
	return nil
}

// prefetchDepth is how many generated files per generator goroutine
// FS.Walk may hold ahead of fn: enough for the other generators to keep
// working while one makes a large or slow file (up to 192 KB, or an
// LZW-compressed one), at about 2 MB in flight at GOMAXPROCS 2.
const prefetchDepth = 4

// maxGenerators caps FS.Walk's generator goroutines, and with them its
// ring, whatever the core count: concurrent walks (one per stream of a
// cksumd or netsim scenario) each hold at most prefetchDepth·maxGenerators
// files (3 MB of 192 KB files) and start at most maxGenerators goroutines.
const maxGenerators = 4

// TotalBytes returns the summed size of all files.
func (fs *FS) TotalBytes() int64 {
	var n int64
	for _, s := range fs.Specs {
		n += int64(s.Size)
	}
	return n
}

// TypeWeight gives one file type's share of a profile's mixture.
type TypeWeight struct {
	Type   FileType
	Weight int // relative probability of each file being this type
}

// Profile describes a synthetic file system in the image of one of the
// paper's scanned systems: a name, a mixture of file populations, a
// file count and a size range.
type Profile struct {
	Name     string
	Mix      []TypeWeight
	Files    int
	MinSize  int
	MaxSize  int
	Seed     uint64
	Clusters bool // group same-type files into directories, like real trees
}

// Scale returns a copy of p with the file count multiplied by f
// (minimum 1 file).  Used to trade runtime against sample size.
func (p Profile) Scale(f float64) Profile {
	n := int(float64(p.Files) * f)
	if n < 1 {
		n = 1
	}
	p.Files = n
	return p
}

// Build realizes the profile into a file system.  Sizes are drawn
// log-uniformly between MinSize and MaxSize, mimicking the heavy-tailed
// file-size distributions of real systems.
func (p Profile) Build() *FS {
	rng := rand.New(rand.NewPCG(p.Seed, 0x5EED))
	total := 0
	for _, w := range p.Mix {
		total += w.Weight
	}
	if total == 0 {
		panic("corpus: profile has empty mixture")
	}
	fs := &FS{Name: p.Name}
	counts := make(map[FileType]int)
	for i := 0; i < p.Files; i++ {
		r := rng.IntN(total)
		var ft FileType
		for _, w := range p.Mix {
			if r < w.Weight {
				ft = w.Type
				break
			}
			r -= w.Weight
		}
		size := logUniform(rng, p.MinSize, p.MaxSize)
		counts[ft]++
		dir := "files"
		if p.Clusters {
			dir = ft.String()
		}
		spec := FileSpec{
			Path: fmt.Sprintf("%s/%s%04d%s", dir, ft, counts[ft], fileTypeExt[ft]),
			Type: ft,
			Size: size,
			seed: p.Seed ^ rng.Uint64(),
		}
		fs.Specs = append(fs.Specs, spec)
	}
	return fs
}

// logUniform draws a size log-uniformly in [min, max].
func logUniform(rng *rand.Rand, min, max int) int {
	if min < 1 {
		min = 1
	}
	if max <= min {
		return min
	}
	lo, hi := float64(min), float64(max)
	v := lo * math.Pow(hi/lo, rng.Float64())
	n := int(v)
	if n < min {
		n = min
	}
	if n > max {
		n = max
	}
	return n
}
