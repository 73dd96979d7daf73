package main

// The host this benchmark runs on is shared: its speed drifts by tens of
// percent over seconds to minutes as other tenants load it, and the drift
// slows every computation alike, CPU time included. So the runs time a
// fixed reference computation, the calibration kernel, right before each
// pass and once after the last, and scale each pass's host timings by
// calNominalMS over the mean of the two kernel times around it. The
// kernel is the benchmark's own code, so a change to the program under
// test moves the scaled timings but not the kernel.

// calNominalMS is the calibration kernel's time, in ms, on the host the
// bounds were set on (a shared two-vCPU virtual machine) at its usual
// speed. Scaled timings read as that host's milliseconds.
const calNominalMS = 1.4

// calReps is how often the kernel runs per calibration; the fastest run
// counts.
const calReps = 3

// calKernel holds the kernel's working set, built once so that the
// kernel itself allocates nothing and leaves the program's heap alone.
type calKernel struct {
	heap  []float64 // a binary min-heap, kept at its initial size
	count map[int]int
	next  []int32 // one random cycle through the indices, for pointer chasing
}

func newCalKernel() *calKernel {
	k := &calKernel{heap: make([]float64, 1024), count: map[int]int{}, next: make([]int32, 1<<18)}
	for i := range k.heap {
		k.heap[i] = float64(i)
	}
	for i := 0; i < 2048; i++ {
		k.count[i] = 0
	}
	// Sattolo's algorithm with a fixed LCG: one cycle through every index.
	perm := make([]int32, len(k.next))
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(1)
	for i := len(perm) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x>>33) % i
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		k.next[perm[i]] = perm[(i+1)%len(perm)]
	}
	return k
}

// run does the kernel's fixed work once: heap replacements, map updates
// and dependent loads over a working set larger than the L2 cache, the
// kinds of work the simulations do. It returns a value derived from all
// of it, so none can be optimised away.
func (k *calKernel) run() float64 {
	h, sum, j := k.heap, 0.0, int32(0)
	for i := 0; i < 20000; i++ {
		// Replace the heap's minimum and sift the new value down.
		v := h[0] + float64(i%97)
		p := 0
		for {
			c := 2*p + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if v <= h[c] {
				break
			}
			h[p] = h[c]
			p = c
		}
		h[p] = v
		k.count[i%2048]++
		j = k.next[j]
		sum += v + float64(j)
	}
	return sum
}

// calibrate returns the kernel's fastest of calReps runs, in ms.
func (r *run) calibrate() float64 {
	best := 0.0
	for i := 0; i < calReps; i++ {
		t0 := r.clock()
		r.calSink += r.kernel.run()
		if d := 1000 * (r.clock() - t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}
