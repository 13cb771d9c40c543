package main

import (
	"fmt"
	"strings"
	"testing"
)

// spread returns ten ns/op samples with the given median and interquartile
// range: evenly spaced values x_i = med + (i-4.5)·iqr/4.5, whose linearly
// interpolated quartiles sit at med ∓ iqr/2.
func spread(med, iqr float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = med + (float64(i)-4.5)*iqr/4.5
	}
	return xs
}

// output renders one benchmark's samples as `go test -bench` prints them,
// between the header and trailer lines a real run carries.
func output(name string, xs []float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro/internal/wirelength\ncpu: test CPU\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "Benchmark%s-2 \t    2000\t %14.1f ns/op\t       0 B/op\t       0 allocs/op\n", name, x)
	}
	b.WriteString("PASS\nok  \trepro/internal/wirelength\t1.234s\n")
	return b.String()
}

func TestCompareRule(t *testing.T) {
	cases := []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"identical samples", spread(1000, 50), spread(1000, 50), verdictOK},
		{"+26% over a 5% IQR", spread(1000, 50), spread(1260, 50), verdictFail},
		{"+15% inside a 20% IQR", spread(1000, 200), spread(1150, 200), verdictOK},
		{"+8% over a 1% IQR, under 10%", spread(1000, 10), spread(1080, 10), verdictOK},
	}
	for _, c := range cases {
		base := parse(strings.NewReader(output("K/soa", c.base)))
		head := parse(strings.NewReader(output("K/soa", c.head)))
		rows := compare(base, head)
		if len(rows) != 1 || rows[0].verdict != c.want {
			t.Errorf("%s: rows %+v, want one row with verdict %q", c.name, rows, c.want)
		}
	}
}

func TestCompareOneSideOnly(t *testing.T) {
	base := parse(strings.NewReader(output("Kept", spread(1000, 50)) + output("Gone", spread(500, 10))))
	head := parse(strings.NewReader(output("Kept", spread(1000, 50)) + output("New", spread(700, 10))))
	got := map[string]string{}
	for _, r := range compare(base, head) {
		got[r.name] = r.verdict
	}
	want := map[string]string{
		"Gone-2": "not compared: base only",
		"New-2":  "not compared: head only",
		"Kept-2": verdictOK,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: verdict %q, want %q", name, got[name], v)
		}
	}
}

func TestParseIgnoresOtherLines(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkWAGradSoA/soa-2         	    2000	     61234 ns/op",
		"Benchmarking notes: 3 of 4 ns/op",
		"BenchmarkGlobalRoute-2   50   2500000 ns/op   120000 B/op   900 allocs/op",
		"--- FAIL: BenchmarkBroken-2",
		"BenchmarkNoCount-2 fast 12 ns/op",
		"PASS",
		"ok  	repro/internal/route	3.2s",
	}, "\n")
	got := parse(strings.NewReader(in))
	want := map[string]float64{"WAGradSoA/soa-2": 61234, "GlobalRoute-2": 2500000}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want the two result lines only", got)
	}
	for name, v := range want {
		if xs := got[name]; len(xs) != 1 || xs[0] != v {
			t.Errorf("%s: samples %v, want [%v]", name, xs, v)
		}
	}
}
