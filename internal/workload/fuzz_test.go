package workload

// Native fuzzing for the trace CSV codec: arbitrary bytes must either be
// rejected with an error or parse into a trace that validates and
// round-trips. Seeds live in testdata/fuzz/FuzzReadCSV.

import (
	"bytes"
	"math"
	"testing"
)

func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("step_seconds,900\nweb-a,0,0.5,0.25\nweb-b,1,0.1,0.9\n"))
	f.Add([]byte("step_seconds,1\nonly,2,1\n"))
	f.Add([]byte("step_seconds,900\n"))
	f.Add([]byte("not,a,trace\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected: fine
		}
		// Anything accepted must satisfy the documented contract.
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace does not validate: %v", err)
		}
		// Write → read must succeed and preserve shape and samples within
		// the codec's documented 6-significant-digit quantization.
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("writing accepted trace: %v", err)
		}
		first := buf.String()
		tr2, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written trace: %v", err)
		}
		if tr2.NumVMs() != tr.NumVMs() || tr2.NumSteps() != tr.NumSteps() {
			t.Fatalf("round-trip shape %dx%d, want %dx%d",
				tr2.NumVMs(), tr2.NumSteps(), tr.NumVMs(), tr.NumSteps())
		}
		for i := 0; i < tr.NumVMs(); i++ {
			if tr2.Names[i] != tr.Names[i] || tr2.Sectors[i] != tr.Sectors[i] {
				t.Fatalf("vm %d identity changed: %q/%d vs %q/%d",
					i, tr2.Names[i], tr2.Sectors[i], tr.Names[i], tr.Sectors[i])
			}
			for k := 0; k < tr.NumSteps(); k++ {
				if math.Abs(tr2.At(i, k)-tr.At(i, k)) > 1e-5 {
					t.Fatalf("vm %d step %d: %v vs %v", i, k, tr2.At(i, k), tr.At(i, k))
				}
			}
		}
		// A second cycle must be byte-identical: the codec is idempotent
		// once values are quantized.
		var buf2 bytes.Buffer
		if err := tr2.WriteCSV(&buf2); err != nil {
			t.Fatal(err)
		}
		if buf2.String() != first {
			t.Fatalf("second write differs from first:\n%s\nvs\n%s", buf2.String(), first)
		}
	})
}
