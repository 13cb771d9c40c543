// Command benchab is the same-runner A/B speed gate for the production
// kernel microbenchmarks. It builds each benchmarked package's test binary
// in the base tree named by its argument and in the head tree, the current
// directory, then runs both sides for ten rounds at a fixed iteration count,
// so they do identical work. Base runs first on even rounds and head first
// on odd ones, so slow drift affects both sides alike.
//
// A benchmark fails when head's median ns/op exceeds base's by more than
// base's interquartile range and by more than 10%: the first bound absorbs
// the runner's noise, the second keeps a quiet runner from flagging a change
// too small to matter. The tool prints one row per benchmark (base median,
// base IQR, head median, delta, verdict) and lists a benchmark found on only
// one side as not compared.
//
// Usage:
//
//	go run ./internal/tools/benchab <base-tree>
//
// `make bench-ab BASE=<git ref>` runs it against a temporary worktree at
// BASE. Exit status: 0 no regression, 1 a benchmark regressed, 2 the
// comparison could not run.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// suite is the fixed set of compared benchmarks: the package, its
// -test.bench pattern and the iteration count of one run.
var suite = []struct {
	pkg, bench string
	iters      int
}{
	{"./internal/wirelength", "^BenchmarkWAGradSoA$/^soa", 2000},
	{"./internal/density", "^BenchmarkDensitySoA$", 1000},
	{"./internal/route", "^BenchmarkGlobalRoute$", 50},
}

const (
	// rounds is how many times each side runs each benchmark.
	rounds = 10
	// minSlowdown is the smallest relative slowdown of the medians that
	// fails, however tight the base's spread.
	minSlowdown = 0.10
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./internal/tools/benchab <base-tree>")
		os.Exit(2)
	}
	base, head, err := measure(os.Args[1], ".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf(rowFormat+"\n", "benchmark", "base ns/op", "base IQR", "head ns/op", "delta", "verdict")
	compared, failed := 0, 0
	for _, r := range compare(base, head) {
		fmt.Println(r)
		if r.compared {
			compared++
		}
		if r.verdict == verdictFail {
			failed++
		}
	}
	switch {
	case compared == 0:
		fmt.Fprintln(os.Stderr, "benchab: no benchmark ran on both sides")
		os.Exit(2)
	case failed > 0:
		fmt.Fprintf(os.Stderr, "benchab: %d of %d benchmarks regressed\n", failed, compared)
		os.Exit(1)
	}
}

// measure builds the suite's test binaries in both trees, runs them for
// rounds rounds in alternating order and returns each side's ns/op samples
// by benchmark name.
func measure(baseTree, headTree string) (base, head map[string][]float64, err error) {
	tmp, err := os.MkdirTemp("", "benchab")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	trees := [2]string{baseTree, headTree}
	bins := make([][2]string, len(suite))
	for i, b := range suite {
		for side, tree := range trees {
			bins[i][side] = filepath.Join(tmp, fmt.Sprintf("%d-%d.test", i, side))
			cmd := exec.Command("go", "test", "-c", "-o", bins[i][side], b.pkg)
			cmd.Dir = tree
			if out, err := cmd.CombinedOutput(); err != nil {
				return nil, nil, fmt.Errorf("build %s in %s: %w\n%s", b.pkg, tree, err, out)
			}
		}
	}
	var out [2]bytes.Buffer
	for round := 0; round < rounds; round++ {
		for i, b := range suite {
			for k := 0; k < 2; k++ {
				side := (round + k) % 2
				cmd := exec.Command(bins[i][side], "-test.run", "^$", "-test.timeout", "5m",
					"-test.bench", b.bench, "-test.benchtime", fmt.Sprintf("%dx", b.iters))
				cmd.Dir = filepath.Join(trees[side], b.pkg)
				cmd.Stdout = &out[side]
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return nil, nil, fmt.Errorf("run %s in %s: %w", b.pkg, trees[side], err)
				}
			}
		}
	}
	return parse(&out[0]), parse(&out[1]), nil
}

// parse collects the ns/op samples of every benchmark result line in `go
// test -bench` output ("BenchmarkName-2  2000  61234 ns/op ..."), keyed by
// the name without its "Benchmark" prefix. Any other line is ignored.
func parse(r io.Reader) map[string][]float64 {
	samples := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		_, errN := strconv.Atoi(f[1])
		v, errV := strconv.ParseFloat(f[2], 64)
		if errN == nil && errV == nil {
			name := strings.TrimPrefix(f[0], "Benchmark")
			samples[name] = append(samples[name], v)
		}
	}
	return samples
}

// Verdicts.
const (
	verdictOK   = "ok"
	verdictFail = "FAIL"
)

// row is one benchmark's comparison. A benchmark that ran on one side only
// is not compared and its statistics are zero.
type row struct {
	name                      string
	compared                  bool
	baseMed, baseIQR, headMed float64
	verdict                   string
}

// compare applies the gate's rule to every benchmark found on either side,
// in name order.
func compare(base, head map[string][]float64) []row {
	names := make([]string, 0, len(base)+len(head))
	for _, m := range []map[string][]float64{base, head} {
		for name := range m {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var rows []row
	for i, name := range names {
		if i > 0 && name == names[i-1] {
			continue
		}
		r := row{name: name, verdict: verdictOK}
		switch {
		case len(base[name]) == 0:
			r.verdict = "not compared: head only"
		case len(head[name]) == 0:
			r.verdict = "not compared: base only"
		default:
			r.compared = true
			q1, med, q3 := quartiles(base[name])
			_, r.headMed, _ = quartiles(head[name])
			r.baseMed, r.baseIQR = med, q3-q1
			if regressed(r.baseMed, r.baseIQR, r.headMed) {
				r.verdict = verdictFail
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// regressed is the gate's rule: head's median is slower than base's by more
// than base's IQR and by more than minSlowdown.
func regressed(baseMed, baseIQR, headMed float64) bool {
	d := headMed - baseMed
	return d > baseIQR && d > minSlowdown*baseMed
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// rowFormat lays out the table's header and its not-compared rows.
const rowFormat = "%-32s %14s %9s %14s %8s  %s"

// String renders r as a table row; IQR and delta are relative to the base
// median.
func (r row) String() string {
	if !r.compared {
		return fmt.Sprintf(rowFormat, r.name, "-", "-", "-", "-", r.verdict)
	}
	return fmt.Sprintf("%-32s %14.0f %8.1f%% %14.0f %+7.1f%%  %s", r.name,
		r.baseMed, 100*r.baseIQR/r.baseMed, r.headMed, 100*(r.headMed/r.baseMed-1), r.verdict)
}
