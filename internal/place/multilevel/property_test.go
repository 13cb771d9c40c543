package multilevel

import (
	"math"
	"testing"

	"repro/internal/datapath"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/place/global"
)

// atomicSets is the driver's atomic cell sets for an extraction.
func atomicSets(ext *datapath.Extraction) [][]netlist.CellID {
	return atomicFromGroups(global.AlignGroupsFromExtraction(ext))
}

// propertyBench generates one deterministic datapath-heavy design per seed.
func propertyBench(seed int64, random int) *gen.Benchmark {
	return gen.Generate(gen.Config{
		Name: "prop", Seed: seed, Bits: 8,
		Units:       []gen.UnitKind{gen.Adder, gen.RegBank},
		RandomCells: random,
	})
}

// coarsenOnce extracts datapath groups, coarsens one level, and projects.
func coarsenOnce(t *testing.T, b *gen.Benchmark, ratio float64) (*datapath.Extraction, []int, *netlist.ClusterMap) {
	t.Helper()
	ext := datapath.Extract(b.Netlist, datapath.DefaultOptions())
	assign := coarsen(b.Netlist, atomicSets(ext), nil, ratio)
	cm, err := netlist.ProjectClusters(b.Netlist, assign)
	if err != nil {
		t.Fatal(err)
	}
	return ext, assign, cm
}

// TestClusteringPreservesArea asserts total movable area is invariant under
// clustering at every level of a two-level hierarchy, across seeds.
func TestClusteringPreservesArea(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		b := propertyBench(seed, 300)
		_, _, cm := coarsenOnce(t, b, 0.4)
		levels := []*netlist.Netlist{b.Netlist, cm.Coarse}
		// Second level: no atomic seeds, frozen propagated.
		frozen := propagateFrozen(cm, frozenMask(b.Netlist, t))
		assign2 := coarsen(cm.Coarse, nil, frozen, 0.4)
		cm2, err := netlist.ProjectClusters(cm.Coarse, assign2)
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, cm2.Coarse)
		want := b.Netlist.MovableArea()
		for li, nl := range levels {
			got := nl.MovableArea()
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("seed %d level %d: movable area %g, want %g", seed, li, got, want)
			}
		}
	}
}

// frozenMask recomputes the flat frozen mask from extraction, as the driver
// does internally.
func frozenMask(nl *netlist.Netlist, t *testing.T) []bool {
	t.Helper()
	ext := datapath.Extract(nl, datapath.DefaultOptions())
	frozen := make([]bool, nl.NumCells())
	for _, set := range atomicSets(ext) {
		for _, c := range set {
			frozen[c] = true
		}
	}
	return frozen
}

// TestClusteringKeepsGroupsAtomic asserts every extracted datapath group
// coarsens into exactly one cluster containing exactly the group's cells —
// never merged with foreign cells or another group.
func TestClusteringKeepsGroupsAtomic(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		b := propertyBench(seed, 300)
		ext, assign, cm := coarsenOnce(t, b, 0.4)
		if len(ext.Groups) == 0 {
			t.Fatalf("seed %d: extraction found no groups", seed)
		}
		for gi, set := range atomicSets(ext) {
			k := cm.ClusterOf[set[0]]
			for _, c := range set[1:] {
				if cm.ClusterOf[c] != k {
					t.Fatalf("seed %d group %d: split across clusters %d and %d",
						seed, gi, k, cm.ClusterOf[c])
				}
			}
			if got, want := len(cm.Members[k]), len(set); got != want {
				t.Errorf("seed %d group %d: cluster has %d members, group has %d cells",
					seed, gi, got, want)
			}
		}
		// Cross-check via the raw assignment: two cells of different groups
		// never share a cluster id.
		for c1 := range b.Netlist.Cells {
			g1 := ext.CellGroup[c1]
			if g1 < 0 {
				continue
			}
			for c2 := c1 + 1; c2 < b.Netlist.NumCells(); c2++ {
				g2 := ext.CellGroup[c2]
				if g2 >= 0 && g2 != g1 && assign[c1] == assign[c2] {
					t.Fatalf("seed %d: cells %d (group %d) and %d (group %d) share cluster %d",
						seed, c1, g1, c2, g2, assign[c1])
				}
			}
		}
	}
}

// TestUnclusteringIsBijection asserts the partition is a bijection back to
// the flat netlist: every flat cell sits in exactly one member slot and the
// two directions of the map agree.
func TestUnclusteringIsBijection(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		b := propertyBench(seed, 300)
		_, _, cm := coarsenOnce(t, b, 0.4)
		if err := cm.CheckBijection(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := len(sortedMembers(cm)), b.Netlist.NumCells(); got != want {
			t.Fatalf("seed %d: member lists cover %d of %d cells", seed, got, want)
		}
		// Fixed cells must be singletons so pads survive every level intact.
		for ck, ms := range cm.Members {
			for _, c := range ms {
				if b.Netlist.Cell(c).Fixed && len(ms) != 1 {
					t.Errorf("seed %d: fixed cell %d in %d-member cluster %d",
						seed, c, len(ms), ck)
				}
			}
		}
	}
}

// TestCoarseningIsDeterministic asserts the clustering pass is a pure
// function of its inputs: two runs produce identical assignments.
func TestCoarseningIsDeterministic(t *testing.T) {
	b := propertyBench(7, 300)
	ext := datapath.Extract(b.Netlist, datapath.DefaultOptions())
	a1 := coarsen(b.Netlist, atomicSets(ext), nil, 0.4)
	a2 := coarsen(b.Netlist, atomicSets(ext), nil, 0.4)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("assignment differs at cell %d: %d vs %d", i, a1[i], a2[i])
		}
	}
}

// TestCoarseningReduces asserts the pass actually approaches the requested
// ratio on a connected design instead of stalling.
func TestCoarseningReduces(t *testing.T) {
	b := propertyBench(3, 600)
	ext := datapath.Extract(b.Netlist, datapath.DefaultOptions())
	assign := coarsen(b.Netlist, atomicSets(ext), nil, 0.4)
	cm, err := netlist.ProjectClusters(b.Netlist, assign)
	if err != nil {
		t.Fatal(err)
	}
	if r := cm.Ratio(); r > 0.7 {
		t.Errorf("coarsening ratio %.3f barely reduced the netlist", r)
	}
	if err := cm.Coarse.Validate(); err != nil {
		t.Fatal(err)
	}
}
