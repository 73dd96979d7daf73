package mat

// Workspace is a replay-style arena for the solver hot paths (DESIGN
// §12): growable Vec/Mat/[]int slots handed out in call order, plus
// one reusable LU and one reusable QR factorization. Reset rewinds the
// slot cursors without freeing anything, so a caller that issues the
// same sequence of Take calls every solve gets the same backing arrays
// back and performs zero steady-state heap allocations; capacity only
// grows while the workspace is warming up to its high-water mark.
//
// A Workspace serves exactly one solver loop at a time: it is not safe
// for concurrent use, and every buffer obtained from it — including
// solution vectors returned by InequalityLSW — is valid only until the
// cursor is rewound past it by the next Reset or Release.
type Workspace struct {
	vecs       []Vec
	mats       []*Mat
	ints       [][]int
	vi, mi, ii int

	lu LU
	qr QR
}

// NewWorkspace returns an empty workspace; capacity grows on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset rewinds every slot cursor to the start, recycling all buffers.
func (w *Workspace) Reset() { w.vi, w.mi, w.ii = 0, 0, 0 }

// WorkspaceMark is a cursor snapshot for Release.
type WorkspaceMark struct{ v, m, i int }

// Mark captures the current slot cursors.
func (w *Workspace) Mark() WorkspaceMark { return WorkspaceMark{w.vi, w.mi, w.ii} }

// Release rewinds the cursors to a previous Mark, recycling every slot
// taken since. Buffers handed out after the mark must not be used again.
func (w *Workspace) Release(m WorkspaceMark) { w.vi, w.mi, w.ii = m.v, m.m, m.i }

// TakeVec returns a zeroed length-n vector from the next vector slot.
func (w *Workspace) TakeVec(n int) Vec {
	if w.vi == len(w.vecs) {
		//lint:ignore hotalloc slot-table growth happens only until the workspace reaches its steady-state shape
		w.vecs = append(w.vecs, nil)
	}
	v := growVec(w.vecs[w.vi], n)
	w.vecs[w.vi] = v
	w.vi++
	clear(v)
	return v
}

// TakeMat returns a zeroed rows×cols matrix from the next matrix slot.
func (w *Workspace) TakeMat(rows, cols int) *Mat {
	if w.mi == len(w.mats) {
		//lint:ignore hotalloc slot-table growth happens only until the workspace reaches its steady-state shape
		w.mats = append(w.mats, new(Mat))
	}
	m := w.mats[w.mi]
	w.mi++
	m.reshape(rows, cols)
	clear(m.Data)
	return m
}

// TakeInts returns a zeroed length-n int slice from the next int slot.
func (w *Workspace) TakeInts(n int) []int {
	if w.ii == len(w.ints) {
		w.ints = append(w.ints, nil)
	}
	s := growInts(w.ints[w.ii], n)
	w.ints[w.ii] = s
	w.ii++
	clear(s)
	return s
}

// LU returns the workspace's reusable LU factorization.
func (w *Workspace) LU() *LU { return &w.lu }

// QR returns the workspace's reusable QR factorization.
func (w *Workspace) QR() *QR { return &w.qr }

// reshape resizes m to rows×cols, reusing the backing array when its
// capacity suffices and growing it geometrically otherwise (grownCap).
// Contents are unspecified afterwards.
func (m *Mat) reshape(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		//lint:ignore hotalloc capacity growth happens only until the buffer reaches its steady-state size
		m.Data = make([]float64, grownCap(cap(m.Data), n))
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
}

// growVec returns buf with length n, reusing its backing array when the
// capacity suffices and growing it geometrically otherwise (grownCap).
// Contents are unspecified.
func growVec(buf Vec, n int) Vec {
	if cap(buf) < n {
		//lint:ignore hotalloc capacity growth happens only until the buffer reaches its steady-state size
		buf = make(Vec, grownCap(cap(buf), n))
	}
	return buf[:n]
}

// growInts is growVec for int slices.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		//lint:ignore hotalloc capacity growth happens only until the buffer reaches its steady-state size
		buf = make([]int, grownCap(cap(buf), n))
	}
	return buf[:n]
}

// grownCap is the capacity a buffer of capacity c grows to when n > c
// elements are asked of it: at least twice c, so a buffer that meets
// one new high after another (an MPC active set growing a constraint at
// a time) allocates a logarithmic number of times, not once per high.
func grownCap(c, n int) int { return max(n, 2*c) }
