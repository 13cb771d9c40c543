// Package serve implements dpplaced, the placement-as-a-service daemon: a
// bounded job scheduler with admission control and per-job priorities, an
// append-only crash-safe job journal with per-job artifact directories, HTTP
// handlers for job submission and result retrieval, and SSE streaming of the
// per-iteration solver telemetry with heartbeats.
//
// The robustness contract is the headline. Every state transition is
// journaled before it is acted on, so a SIGKILL at any point loses at most
// the work of the in-flight attempts: on restart, jobs with a start record
// but no terminal record are requeued and — placements being bit-identical
// for a given spec — re-execution converges to the same artifact an
// uninterrupted run would have produced. SIGTERM triggers a graceful drain:
// admission stops, running jobs finish (or checkpoint their best iterate
// when the drain deadline expires), the journal is flushed, and the daemon
// reports whether the drain was clean.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/bookshelf"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/pipeline"
)

// JobSpec is the client-facing job description POSTed to /jobs and persisted
// verbatim in the journal's submit record, so a requeued job re-executes
// from exactly the bytes the client sent. Exactly one of Gen and Aux must be
// set.
type JobSpec struct {
	// Name labels the design in reports and logs (default "job").
	Name string `json:"name,omitempty"`
	// Priority orders the queue: higher runs first, ties run in submission
	// order. Range [-100, 100].
	Priority int `json:"priority,omitempty"`
	// TimeoutSeconds caps the job's wall clock (0 = the daemon default). On
	// expiry the job keeps its best-iterate partial result.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Options tunes the placement flow.
	Options SpecOptions `json:"options,omitempty"`
	// Gen generates a synthetic benchmark in-process (deterministic in Seed).
	Gen *GenSpec `json:"gen,omitempty"`
	// Aux uploads a Bookshelf bundle inline: the file contents, not paths.
	Aux *AuxBundle `json:"aux,omitempty"`
}

// SpecOptions mirrors the dpplace run-control flags a service client may set.
type SpecOptions struct {
	// Mode selects "structure-aware" (default) or "baseline".
	Mode string `json:"mode,omitempty"`
	// Model selects the smooth wirelength model, "wa" (default) or "lse".
	Model string `json:"model,omitempty"`
	// Multilevel runs the V-cycle clustered global placement.
	Multilevel bool `json:"multilevel,omitempty"`
	// Outer caps λ-schedule iterations (0 = default 24).
	Outer int `json:"outer,omitempty"`
	// Inner caps CG iterations per stage (0 = default 50).
	Inner int `json:"inner,omitempty"`
	// Workers is the requested worker count; the scheduler may grant fewer
	// when the shared budget is contended (results are identical either way).
	Workers int `json:"workers,omitempty"`
	// OnDegrade selects "fallback" (default) or "fail".
	OnDegrade string `json:"on_degrade,omitempty"`
}

// GenSpec selects a synthetic benchmark, mirroring dpgen's flags.
type GenSpec struct {
	// Seed drives deterministic generation.
	Seed int64 `json:"seed,omitempty"`
	// Bits is the datapath width (default 16, max 512).
	Bits int `json:"bits,omitempty"`
	// Units lists datapath units in order: adder, muxtree, shifter, regbank.
	Units []string `json:"units,omitempty"`
	// RandomCells is the random-logic cell count.
	RandomCells int `json:"random_cells,omitempty"`
	// Pads is the fixed IO pad count (default 16, max 10,000).
	Pads int `json:"pads,omitempty"`
	// Scramble strips bus indices from net names.
	Scramble bool `json:"scramble,omitempty"`
}

// AuxBundle carries a Bookshelf design inline. Nodes and Nets are required;
// Scl is required too because the placer needs a core region. Pl is optional
// (fixed-cell positions; movables default to the core center at solve time).
type AuxBundle struct {
	// Nodes is the .nodes file contents.
	Nodes string `json:"nodes"`
	// Nets is the .nets file contents.
	Nets string `json:"nets"`
	// Pl is the optional .pl file contents.
	Pl string `json:"pl,omitempty"`
	// Scl is the .scl file contents.
	Scl string `json:"scl"`
}

// Spec limits. They bound what a single POST can make the daemon chew on
// before admission control has had a chance to look at a cost estimate.
const (
	maxPriorityMagnitude = 100
	maxGenUnits          = 64
	maxGenRandomCells    = 2_000_000
	maxGenPads           = 10_000
)

// malformedf builds a spec validation error carrying the taxonomy sentinel,
// so the HTTP layer maps it to 400 with errors.Is.
func malformedf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, pipeline.ErrMalformedInput)...)
}

// DecodeSpec parses and validates one JobSpec from r. Unknown fields are
// rejected — a typo'd option silently ignored would place the wrong design.
// Every rejection wraps pipeline.ErrMalformedInput.
func DecodeSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	spec := &JobSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, malformedf("job spec: %v", err)
	}
	// Trailing garbage after the JSON object is a malformed request, not an
	// extra job.
	if dec.More() {
		return nil, malformedf("job spec: trailing data after JSON object")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Validate checks the spec against the submission limits.
func (s *JobSpec) Validate() error {
	if s.Gen == nil && s.Aux == nil {
		return malformedf("job spec: one of gen or aux is required")
	}
	if s.Gen != nil && s.Aux != nil {
		return malformedf("job spec: gen and aux are mutually exclusive")
	}
	if s.Priority < -maxPriorityMagnitude || s.Priority > maxPriorityMagnitude {
		return malformedf("job spec: priority %d outside [-%d, %d]",
			s.Priority, maxPriorityMagnitude, maxPriorityMagnitude)
	}
	if s.TimeoutSeconds < 0 {
		return malformedf("job spec: negative timeout_seconds")
	}
	switch s.Options.Mode {
	case "", "structure-aware", "baseline":
	default:
		return malformedf("job spec: unknown mode %q", s.Options.Mode)
	}
	switch s.Options.Model {
	case "", "wa", "lse":
	default:
		return malformedf("job spec: unknown model %q", s.Options.Model)
	}
	switch s.Options.OnDegrade {
	case "", "fallback", "fail":
	default:
		return malformedf("job spec: unknown on_degrade %q", s.Options.OnDegrade)
	}
	if s.Options.Outer < 0 || s.Options.Inner < 0 || s.Options.Workers < 0 {
		return malformedf("job spec: negative outer/inner/workers")
	}
	if g := s.Gen; g != nil {
		if g.Bits < 0 || g.Bits > gen.MaxBits {
			return malformedf("job spec: gen.bits %d outside [0, %d]", g.Bits, gen.MaxBits)
		}
		if len(g.Units) > maxGenUnits {
			return malformedf("job spec: %d gen units exceed the %d cap", len(g.Units), maxGenUnits)
		}
		if g.RandomCells < 0 || g.RandomCells > maxGenRandomCells {
			return malformedf("job spec: gen.random_cells %d outside [0, %d]",
				g.RandomCells, maxGenRandomCells)
		}
		if g.Pads < 0 || g.Pads > maxGenPads {
			return malformedf("job spec: gen.pads %d outside [0, %d]", g.Pads, maxGenPads)
		}
		kinds, err := parseUnits(g.Units)
		if err != nil {
			return err
		}
		if len(kinds) == 0 && g.RandomCells == 0 {
			return malformedf("job spec: gen has no movable cell: name a unit or set random_cells > 0")
		}
	}
	if a := s.Aux; a != nil {
		if strings.TrimSpace(a.Nodes) == "" || strings.TrimSpace(a.Nets) == "" {
			return malformedf("job spec: aux.nodes and aux.nets are required")
		}
		if strings.TrimSpace(a.Scl) == "" {
			return malformedf("job spec: aux.scl is required (the placer needs a core region)")
		}
	}
	return nil
}

// parseUnits maps unit-kind names to gen.UnitKind.
func parseUnits(names []string) ([]gen.UnitKind, error) {
	kinds := make([]gen.UnitKind, 0, len(names))
	for _, u := range names {
		switch strings.TrimSpace(u) {
		case "adder":
			kinds = append(kinds, gen.Adder)
		case "muxtree":
			kinds = append(kinds, gen.MuxTree)
		case "shifter":
			kinds = append(kinds, gen.Shifter)
		case "regbank":
			kinds = append(kinds, gen.RegBank)
		case "":
		default:
			return nil, malformedf("job spec: unknown gen unit %q", u)
		}
	}
	return kinds, nil
}

// EstimateCells is the admission-control cost proxy: an upper-ish estimate
// of the movable cell count the job will place, computed without building
// the design. Gen specs count their declared cells (each unit contributes at
// most ~8 cells per bit); aux bundles count .nodes lines. The estimate only
// has to rank job sizes for the admission threshold — it is not used
// anywhere a placement could observe it.
func EstimateCells(s *JobSpec) int {
	if g := s.Gen; g != nil {
		bits := g.Bits
		if bits <= 0 {
			bits = 16
		}
		return g.RandomCells + len(g.Units)*bits*8
	}
	if a := s.Aux; a != nil {
		return strings.Count(a.Nodes, "\n")
	}
	return 0
}

// BuildDesign validates the spec and materializes its design: deterministic
// generation for gen specs, hardened Bookshelf parsing for aux bundles.
// Validation and parse failures wrap pipeline.ErrMalformedInput. Validating
// here too means a spec journaled before a validation rule existed fails its
// job as malformed input on replay instead of reaching the generator.
func BuildDesign(s *JobSpec) (*bookshelf.Design, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	name := s.Name
	if name == "" {
		name = "job"
	}
	if g := s.Gen; g != nil {
		kinds, err := parseUnits(g.Units)
		if err != nil {
			return nil, err
		}
		b := gen.Generate(gen.Config{
			Name: name, Seed: g.Seed, Bits: g.Bits, Units: kinds,
			RandomCells: g.RandomCells, Pads: g.Pads, Scramble: g.Scramble,
		})
		return &bookshelf.Design{Netlist: b.Netlist, Placement: b.Placement, Core: b.Core}, nil
	}
	a := s.Aux
	nl := netlist.New(name)
	if err := bookshelf.ReadNodes(strings.NewReader(a.Nodes), nl); err != nil {
		return nil, fmt.Errorf("aux.nodes: %w", err)
	}
	if err := bookshelf.ReadNets(strings.NewReader(a.Nets), nl); err != nil {
		return nil, fmt.Errorf("aux.nets: %w", err)
	}
	d := &bookshelf.Design{Netlist: nl, Placement: netlist.NewPlacement(nl)}
	if a.Pl != "" {
		if err := bookshelf.ReadPl(strings.NewReader(a.Pl), nl, d.Placement); err != nil {
			return nil, fmt.Errorf("aux.pl: %w", err)
		}
	}
	core, err := bookshelf.ReadScl(strings.NewReader(a.Scl))
	if err != nil {
		return nil, fmt.Errorf("aux.scl: %w", err)
	}
	d.Core = core
	if err := nl.Validate(); err != nil {
		return nil, malformedf("aux bundle: %v", err)
	}
	return d, nil
}

// coreOf is a typed accessor asserting the design has a core; BuildDesign
// guarantees it for both paths, but the solver crashes confusingly without
// one, so the scheduler re-checks at run time.
func coreOf(d *bookshelf.Design) (*geom.Core, error) {
	if d.Core == nil {
		return nil, malformedf("design has no core region")
	}
	return d.Core, nil
}
