package core

// vertexHeap is an indexed binary min-heap of (vertex, distance)
// entries supporting decrease-key in place, so a Dijkstra run pops each
// vertex exactly once — the pop count drops from the number of
// relaxations (lazy deletion) to n, which is what makes the profile
// SSSP fast on the moderately dense overlays the experiments produce.
// Priorities are embedded in the entries, keeping sift comparisons on
// sequential memory instead of chasing indices into the distance array.
//
// pos[v] is the heap index of vertex v plus one, or 0 when v is absent.
type vertexHeap struct {
	items []heapEntry
	pos   []int32
}

type heapEntry struct {
	v int32
	d float64
}

// reset prepares the heap for a run over n vertices, keeping capacity.
// The heap never holds more than n entries (decrease-key updates in
// place), so the first reset sizes it for every later run.
func (h *vertexHeap) reset(n int) {
	if cap(h.items) < n {
		h.items = make([]heapEntry, 0, n)
	}
	h.items = h.items[:0]
	if cap(h.pos) < n {
		h.pos = make([]int32, n)
	}
	h.pos = h.pos[:n]
	for i := range h.pos {
		h.pos[i] = 0
	}
}

// fix inserts v at distance d, or sifts it up after a decrease-key.
func (h *vertexHeap) fix(v int32, d float64) {
	i := h.pos[v] - 1
	if i < 0 {
		h.items = append(h.items, heapEntry{})
		i = int32(len(h.items) - 1)
	}
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d <= d {
			break
		}
		h.items[i] = h.items[p]
		h.pos[h.items[i].v] = i + 1
		i = p
	}
	h.items[i] = heapEntry{v: v, d: d}
	h.pos[v] = i + 1
}

// popMin removes and returns the entry with the smallest distance. It
// must not be called on an empty heap.
func (h *vertexHeap) popMin() (int32, float64) {
	top := h.items[0]
	h.pos[top.v] = 0
	last := int32(len(h.items) - 1)
	fill := h.items[last] // hole-filling candidate
	h.items = h.items[:last]
	if last == 0 {
		return top.v, top.d
	}
	i := int32(0)
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h.items[c+1].d < h.items[c].d {
			c++
		}
		if h.items[c].d >= fill.d {
			break
		}
		h.items[i] = h.items[c]
		h.pos[h.items[i].v] = i + 1
		i = c
	}
	h.items[i] = fill
	h.pos[fill.v] = i + 1
	return top.v, top.d
}

// empty reports whether the heap has no entries.
func (h *vertexHeap) empty() bool { return len(h.items) == 0 }
