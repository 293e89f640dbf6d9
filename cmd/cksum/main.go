// Command cksum computes the study's checksums and CRCs over files or
// standard input — a cksum(1) built on the library, and a quick way to
// see the algorithms disagree about the same bytes.
//
// Usage:
//
//	cksum [-a <name>|all] [-kernel stdlib|slicing8|scalar|auto] [file ...]
//
// The algorithm set comes from the internal/algo registry; run with
// -a list to see the names.  With no files, reads standard input.
// With -a all (the default), prints every algorithm for each input.
// -kernel pins the CRC bulk engine (stdlib, slicing8, scalar, or auto)
// instead of the default: the first of stdlib, slicing8, scalar that
// the algorithm supports and that verifies against the scalar oracle.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"realsum/internal/algo"
)

func main() {
	algName := flag.String("a", "all", "algorithm name, \"all\", or \"list\"")
	kernel := flag.String("kernel", "", "force a CRC bulk kernel (stdlib, slicing8, scalar, or auto; default: the first of stdlib, slicing8, scalar that verifies)")
	flag.Parse()

	if *kernel != "" {
		if err := algo.SetCRCKernel(*kernel); err != nil {
			fmt.Fprintf(os.Stderr, "cksum: %v\n", err)
			os.Exit(2)
		}
	}

	if *algName == "list" {
		fmt.Println(strings.Join(algo.Names(), "\n"))
		return
	}
	var selected []algo.Algorithm
	if *algName == "all" {
		selected = algo.All()
	} else if a, ok := algo.Lookup(*algName); ok {
		selected = []algo.Algorithm{a}
	} else {
		fmt.Fprintf(os.Stderr, "cksum: unknown algorithm %q (known: %s)\n",
			*algName, strings.Join(algo.Names(), ", "))
		os.Exit(2)
	}

	emit := func(name string, r io.Reader) error {
		// One streaming pass: every selected digest sees the same bytes
		// without the file ever being held in memory.
		digests := make([]algo.Digest, len(selected))
		writers := make([]io.Writer, len(selected))
		for i, a := range selected {
			digests[i] = a.New()
			writers[i] = digests[i]
		}
		n, err := io.Copy(io.MultiWriter(writers...), r)
		if err != nil {
			return err
		}
		for i, a := range selected {
			width := (a.Width() + 3) / 4
			fmt.Printf("%-12s %0*x  %8d  %s\n", a.Name(), width, digests[i].Sum64(), n, name)
		}
		return nil
	}

	if flag.NArg() == 0 {
		if err := emit("-", os.Stdin); err != nil {
			fmt.Fprintf(os.Stderr, "cksum: stdin: %v\n", err)
			os.Exit(1)
		}
		return
	}
	exit := 0
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cksum: %v\n", err)
			exit = 1
			continue
		}
		err = emit(path, f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cksum: %s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}
