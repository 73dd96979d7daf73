package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vdcpower/internal/race"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{50, 5.5},
		{100, 10},
		{90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmptyIsNaN(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 90)) {
		t.Fatal("expected NaN for empty input")
	}
}

// A kept scratch buffer serves every window no longer than the longest
// so far without allocating, and an empty window leaves it as it was.
func TestPercentileScratchReuses(t *testing.T) {
	xs := []float64{5, 3, 9, 1, 7, 2, 8, 6, 4, 0}
	_, scratch := PercentileScratch(xs, 90, nil)
	if cap(scratch) < len(xs) {
		t.Fatalf("scratch has capacity %d for a window of %d", cap(scratch), len(xs))
	}
	if v, kept := PercentileScratch(nil, 90, scratch); !math.IsNaN(v) || &kept[0] != &scratch[0] {
		t.Fatalf("empty window: %v, scratch replaced: %v", v, &kept[0] != &scratch[0])
	}
	if race.Enabled {
		return
	}
	k := 0
	if n := testing.AllocsPerRun(100, func() {
		k = k%len(xs) + 1
		_, scratch = PercentileScratch(xs[:k], 90, scratch)
	}); n != 0 {
		t.Fatalf("PercentileScratch allocates %v times with a kept scratch", n)
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{42}, 90); got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestPercentileClampsP(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := Percentile(xs, -5); got != 1 {
		t.Fatalf("p<0: got %v", got)
	}
	if got := Percentile(xs, 250); got != 3 {
		t.Fatalf("p>100: got %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

// sortPercentile is the sort-based definition Percentile's selection
// replaced: copy, sort.Float64s, interpolate between closest ranks.
func sortPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentile must return exactly what the sort-based definition returns,
// on every window size up to 300 and on inputs full of ties, infinities
// and NaNs, without touching its input. So must PercentileScratch, with
// one scratch buffer kept across every call: it is stale from the
// previous window, and longer or shorter than the next.
func TestPercentileMatchesSortDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var scratch []float64
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 1}
	fixed := []float64{0, 50, 90, 95, 99, 100}
	for n := 1; n <= 300; n++ {
		for trial := 0; trial < 4; trial++ {
			xs := make([]float64, n)
			levels := 1 + rng.Intn(n) // few levels: many ties
			for i := range xs {
				switch r := rng.Intn(20); {
				case r < 2:
					xs[i] = special[rng.Intn(len(special))]
				case r < 10:
					xs[i] = float64(rng.Intn(levels))
				default:
					xs[i] = rng.NormFloat64()
				}
			}
			switch trial {
			case 1:
				sort.Float64s(xs)
			case 2:
				sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
			}
			orig := append([]float64(nil), xs...)
			ps := append([]float64{-5 + 110*rng.Float64(), 100 * rng.Float64()}, fixed...)
			for _, p := range ps {
				got, want := Percentile(xs, p), sortPercentile(xs, p)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("n %d trial %d p %v: Percentile = %v, sort definition %v\ninput %v", n, trial, p, got, want, orig)
				}
				if got, scratch = PercentileScratch(xs, p, scratch[:rng.Intn(cap(scratch)+1)]); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("n %d trial %d p %v: PercentileScratch = %v, sort definition %v\ninput %v", n, trial, p, got, want, orig)
				}
			}
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("n %d: Percentile modified its input at %d", n, i)
				}
			}
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
}

func TestStdDevDegenerate(t *testing.T) {
	if StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("StdDev of <2 samples must be 0")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, qb := Percentile(xs, pa), Percentile(xs, pb)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return qa <= qb+1e-12 && qa >= sorted[0]-1e-12 && qb <= sorted[len(sorted)-1]+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPercentile1k(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentile(xs, 90)
	}
}
