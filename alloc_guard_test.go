package browsermetric

import (
	"io"
	"testing"
)

// studyAllocCeiling is the allocation ceiling of the 20-run study guards
// below: the measured count (~3.1k) plus ~50% headroom for benign drift.
const studyAllocCeiling = 4_600

// TestStudyAllocCeiling is the top-level allocation regression guard for
// the zero-allocation hot-path work: a full Figure 3 study (every
// method × profile cell, 20 runs each) must stay under the ceiling. The
// seed study needed ~740k allocations for the same workload; the pooled
// event engine, sealed stats views and interned labels brought it under
// 150k, the arena tier (worker-owned slab recycling plus persistent
// per-cell runner state) under 16k (14.8k), and testbed reuse (each
// worker resets one testbed cell after cell, and connection records
// recycle at run boundaries) to ~3.1k. The ceiling keeps ~50% headroom
// for benign drift; the near-zero warm-path contract lives in
// TestWarmRunSteadyStateAllocs.
func TestStudyAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell study in -short mode")
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := RunStudy(StudyOptions{Runs: 20, BaseSeed: 1}); err != nil {
			t.Error(err)
		}
	})
	if allocs > studyAllocCeiling {
		t.Fatalf("Fig3-style study allocated %.0f objects, ceiling %d", allocs, studyAllocCeiling)
	}
}

// TestStudyWriteCSVAllocsPerCell guards the sample CSV export: its
// allocations grow with the number of cells, never with the number of
// samples, so a study at 200 runs per cell exports with as many
// allocations as the same study at 20.
func TestStudyWriteCSVAllocsPerCell(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell study in -short mode")
	}
	var allocs [2]float64
	for i, runs := range []int{20, 200} {
		st, err := RunStudy(StudyOptions{Runs: runs, BaseSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(3, func() {
			if err := st.WriteCSV(io.Discard); err != nil {
				t.Error(err)
			}
		})
	}
	const slack = 4
	if allocs[1] > allocs[0]+slack {
		t.Fatalf("WriteCSV allocated %.0f objects at 200 runs/cell, %.0f at 20: want within %d",
			allocs[1], allocs[0], slack)
	}
}

// TestCleanFaultProfileAllocCeiling is the zero-overhead-when-disabled
// guard for the fault-injection layer: selecting the Clean profile must
// not install an impairment (the link keeps its nil fast path), so the
// allocation count stays under the same ceiling as the pre-faults study.
func TestCleanFaultProfileAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell study in -short mode")
	}
	allocs := testing.AllocsPerRun(1, func() {
		opts := StudyOptions{Runs: 20, BaseSeed: 1}
		opts.Testbed.Faults = FaultClean
		if _, err := RunStudy(opts); err != nil {
			t.Error(err)
		}
	})
	if allocs > studyAllocCeiling {
		t.Fatalf("Clean-profile study allocated %.0f objects, ceiling %d", allocs, studyAllocCeiling)
	}
}
