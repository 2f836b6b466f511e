// Package slab hands out records from fixed-size chunks and takes them
// all back at once. It serves owners whose records share one lifetime:
// a simulated TCP stack's connection records and a web server's
// per-connection state both live until the testbed's next quiet
// boundary, where the owner rewinds and hands the same records out
// again instead of allocating new ones.
package slab

// chunkLen is how many records a chunk holds. Probe workloads open a
// handful of connections per run, so one chunk covers several runs.
const chunkLen = 32

// Chunks hands out records in order, from chunks[chunk][off] on. A
// record's address stays fixed while it is in use (a record may hold
// slices of its own inline arrays), so a chunk is never grown or
// compacted in place: a full one is followed by the next retained chunk
// or by a fresh one. Retained chunks cover the largest number of
// records handed out between two Rewinds. The zero value is empty and
// ready to use.
type Chunks[T any] struct {
	chunks [][]T
	chunk  int
	off    int
}

// Next returns the record at the cursor and advances the cursor,
// allocating a chunk only when every retained one is in use. A record
// from a fresh chunk is zero; a recycled one holds whatever the last
// Rewind's visit left in it.
func (c *Chunks[T]) Next() *T {
	for c.chunk < len(c.chunks) && c.off == chunkLen {
		c.chunk++
		c.off = 0
	}
	if c.chunk == len(c.chunks) {
		c.chunks = append(c.chunks, make([]T, chunkLen))
	}
	r := &c.chunks[c.chunk][c.off]
	c.off++
	return r
}

// Rewind hands visit, one chunk at a time, the records Next returned
// since the previous Rewind, then moves the cursor back to the first
// record: the following Nexts return the same records in the same
// order. visit must not retain the slice.
func (c *Chunks[T]) Rewind(visit func(used []T)) {
	for i := 0; i <= c.chunk && i < len(c.chunks); i++ {
		used := c.chunks[i]
		if i == c.chunk {
			used = used[:c.off]
		}
		visit(used)
	}
	c.chunk, c.off = 0, 0
}
