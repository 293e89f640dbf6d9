package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"realsum/internal/algo"
	"realsum/internal/census"
)

// cpuFlagsOfInterest are the features the CRC kernels and any future
// carry-less-multiply engine depend on.
var cpuFlagsOfInterest = []string{"pclmulqdq", "sse4_2", "avx2", "avx512f", "vpclmulqdq"}

// provenance is the host and build record printed with every run, so a
// figure can be traced to the machine, toolchain, source and CRC kernel
// that produced it.
type provenance struct {
	CPUModel   string             `json:"cpu_model"`
	CPUFlags   map[string]bool    `json:"cpu_flags"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Scale      map[string]float64 `json:"scale"`
	Kernels    map[string]string  `json:"crc_kernels"`
}

func hostProvenance(workload string, seed uint64, scale map[string]float64) provenance {
	model, flags := cpuInfo()
	return provenance{
		CPUModel:   model,
		CPUFlags:   flags,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceCommit(),
		Workload:   workload,
		Seed:       seed,
		Scale:      scale,
		Kernels:    crcKernels(append(algo.All(), census.Algorithms()...)),
	}
}

// cpuInfo reads the first processor's model name and the flags of
// interest from /proc/cpuinfo ("unknown" off Linux).
func cpuInfo() (string, map[string]bool) {
	flags := map[string]bool{}
	for _, f := range cpuFlagsOfInterest {
		flags[f] = false
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", flags
	}
	defer f.Close()
	model := "unknown"
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	seenFlags := false
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case k == "model name" && model == "unknown":
			model = v
		case k == "flags" && !seenFlags:
			seenFlags = true
			have := map[string]bool{}
			for _, fl := range strings.Fields(v) {
				have[fl] = true
			}
			for _, want := range cpuFlagsOfInterest {
				flags[want] = have[want]
			}
		}
	}
	return model, flags
}

// sourceCommit names the source the binary was built from: the VCS
// revision when the build saw one, else a digest of the module's Go
// sources, so runs from an exported tree still identify their code.
func sourceCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// crcKernels reports the bulk engine each CRC algorithm of algs
// resolved to.  The registry's tables race at package init; the census
// candidates race whenever census.Algorithms builds them, so their entry
// shows one such race.  The race is recorded, not pinned.
func crcKernels(algs []algo.Algorithm) map[string]string {
	out := map[string]string{}
	for _, a := range algs {
		if kc, ok := a.(algo.KernelControl); ok {
			out[a.Name()] = kc.Kernel()
		}
	}
	return out
}
