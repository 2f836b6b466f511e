package slab

import "testing"

// TestRewindHandsOutTheSameRecords fills more than one chunk, rewinds,
// and requires the same records back in the same order, the visit to
// see exactly the records handed out, and no chunk beyond the first
// fill's.
func TestRewindHandsOutTheSameRecords(t *testing.T) {
	var c Chunks[int]
	n := chunkLen + chunkLen/2
	first := make([]*int, n)
	for i := range first {
		first[i] = c.Next()
		*first[i] = i + 1
	}
	for cycle := 0; cycle < 3; cycle++ {
		seen := 0
		c.Rewind(func(used []int) {
			for j := range used {
				if used[j] != seen+1 {
					t.Fatalf("cycle %d: visit saw record %d holding %d", cycle, seen, used[j])
				}
				seen++
			}
		})
		if seen != n {
			t.Fatalf("cycle %d: visit saw %d records, want %d", cycle, seen, n)
		}
		for i := range first {
			if r := c.Next(); r != first[i] {
				t.Fatalf("cycle %d: record %d is not the one handed out first", cycle, i)
			}
		}
		if len(c.chunks) != 2 {
			t.Fatalf("cycle %d: %d chunks retained, want 2", cycle, len(c.chunks))
		}
	}
}

// TestRewindVisitsNothingWhenEmpty covers a Rewind with no record handed
// out, before and after the first chunk exists.
func TestRewindVisitsNothingWhenEmpty(t *testing.T) {
	var c Chunks[int]
	visit := func(used []int) {
		if len(used) != 0 {
			t.Fatalf("visit saw %d records, want none", len(used))
		}
	}
	c.Rewind(visit)
	c.Next()
	c.Rewind(func([]int) {})
	c.Rewind(visit)
}

func TestNextAllocatesOnlyPerChunk(t *testing.T) {
	var c Chunks[int]
	c.Next()
	c.Rewind(func([]int) {})
	if n := testing.AllocsPerRun(100, func() {
		c.Next()
		c.Rewind(func([]int) {})
	}); n != 0 {
		t.Fatalf("warm Next+Rewind allocated %v objects, want 0", n)
	}
}
