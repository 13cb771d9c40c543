package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

// fuzzDesign renders a small generated design to Bookshelf text so the seed
// corpus contains a fully valid aux bundle.
func fuzzDesign(f *testing.F) (nodes, nets, pl, scl string) {
	f.Helper()
	b := gen.Generate(gen.Config{
		Name: "fuzzseed", Seed: 17, Bits: 4,
		Units:       []gen.UnitKind{gen.Adder},
		RandomCells: 40,
		Pads:        8,
	})
	var nodesB, netsB, plB, sclB bytes.Buffer
	if err := bookshelf.WriteNodes(&nodesB, b.Netlist); err != nil {
		f.Fatal(err)
	}
	if err := bookshelf.WriteNets(&netsB, b.Netlist); err != nil {
		f.Fatal(err)
	}
	if err := bookshelf.WritePl(&plB, b.Netlist, b.Placement); err != nil {
		f.Fatal(err)
	}
	if err := bookshelf.WriteScl(&sclB, b.Core); err != nil {
		f.Fatal(err)
	}
	return nodesB.String(), netsB.String(), plB.String(), sclB.String()
}

// FuzzDecodeSpec throws arbitrary bytes at the HTTP job-spec decoder: any
// outcome is fine except a panic or a rejection that does not carry the
// malformed-input sentinel (which would map to a 500 instead of a 400).
// Every accepted gen spec small enough to generate quickly must also build
// its design without panicking, as the daemon's runner will.
func FuzzDecodeSpec(f *testing.F) {
	nodes, nets, pl, scl := fuzzDesign(f)
	okGen, err := json.Marshal(&JobSpec{
		Name: "g", Priority: 5,
		Gen:     &GenSpec{Seed: 1, Bits: 4, Units: []string{"adder"}, RandomCells: 10},
		Options: SpecOptions{Mode: "baseline", Model: "lse", Workers: 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	okAux, err := json.Marshal(&JobSpec{
		Name: "a", Aux: &AuxBundle{Nodes: nodes, Nets: nets, Pl: pl, Scl: scl},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(okGen))
	f.Add(string(okAux))
	f.Add(`{}`)
	f.Add(`{"gen":{}}`)
	f.Add(`{"gen":{"random_cells":1,"pads":9000000000}}`)
	f.Add(`{"gen":{},"aux":{"nodes":"a 1 1\n","nets":"","scl":""}}`)
	f.Add(`{"gen":{"bits":-1}}`)
	f.Add(`{"gen":{"units":["warp-core"]}}`)
	f.Add(`{"priority":101,"gen":{}}`)
	f.Add(`{"timeout_seconds":-3,"gen":{}}`)
	f.Add(`{"options":{"mode":"psychic"},"gen":{}}`)
	f.Add(`{"gen":{}} trailing`)
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	f.Fuzz(func(t *testing.T, data string) {
		spec, err := DecodeSpec(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, pipeline.ErrMalformedInput) {
				t.Errorf("rejection without malformed-input sentinel: %v", err)
			}
			return
		}
		// Accepted specs must satisfy the invariants admission relies on.
		if (spec.Gen == nil) == (spec.Aux == nil) {
			t.Error("accepted spec without exactly one of gen/aux")
		}
		if spec.Priority < -maxPriorityMagnitude || spec.Priority > maxPriorityMagnitude {
			t.Errorf("accepted out-of-range priority %d", spec.Priority)
		}
		if EstimateCells(spec) < 0 {
			t.Errorf("negative cost estimate %d", EstimateCells(spec))
		}
		if spec.Gen != nil && EstimateCells(spec) <= 5000 {
			if _, err := BuildDesign(spec); err != nil {
				t.Errorf("accepted gen spec fails to build: %v", err)
			}
		}
	})
}

// FuzzBuildDesignAux drives the uploaded-aux path end to end: fuzzed nodes
// and nets contents (the hardened bookshelf surface) must either build a
// validated design or fail with the malformed-input sentinel — never panic,
// never hand the solver an inconsistent netlist.
func FuzzBuildDesignAux(f *testing.F) {
	nodes, nets, pl, scl := fuzzDesign(f)
	f.Add(nodes, nets)
	f.Add("a 2 10\nb 3 10\n", "NetDegree : 2 n\na O : 0 0\nb I : 0 0\n")
	f.Add("a 2 10\n", "NetDegree : 2 n\na O : 0 0\nghost I : 0 0\n")
	f.Add("a NaN 10\n", "")
	f.Add("NumNodes : 99999999999\na 1 1\n", "NetDegree : -1 n\n")
	f.Fuzz(func(t *testing.T, nodesData, netsData string) {
		spec := &JobSpec{
			Name: "fuzz",
			Aux:  &AuxBundle{Nodes: nodesData, Nets: netsData, Pl: pl, Scl: scl},
		}
		if err := spec.Validate(); err != nil {
			if !errors.Is(err, pipeline.ErrMalformedInput) {
				t.Errorf("validate: error without sentinel: %v", err)
			}
			return
		}
		d, err := BuildDesign(spec)
		if err != nil {
			if !errors.Is(err, pipeline.ErrMalformedInput) {
				t.Errorf("build: error without sentinel: %v", err)
			}
			return
		}
		// An accepted design must be internally consistent and placeable.
		if err := d.Netlist.Validate(); err != nil {
			t.Errorf("accepted design fails validation: %v", err)
		}
		if d.Core == nil {
			t.Error("accepted design has no core region")
		}
	})
}
