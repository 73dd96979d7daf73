package workload

import (
	"bytes"
	"os"
	"strconv"
	"testing"
)

// The golden files hold the trace goldenConfig generates, written by the
// VM-major layout this package used before utilization moved into tiles.
// They pin the on-disk bytes of both codecs across layout changes.
const (
	goldenCSV = "testdata/golden-10x24-seed2008.csv"
	goldenGob = "testdata/golden-10x24-seed2008.gob"
)

func goldenTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Generate(GenConfig{NumVMs: 10, Days: 1, StepsPerHour: 1, Seed: 2008})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func readGolden(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWriteCSVMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace(t).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, goldenCSV); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteCSV wrote %d bytes that differ from the %d golden bytes", buf.Len(), len(want))
	}
}

func TestWriteGobMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace(t).WriteGob(&buf); err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, goldenGob); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteGob wrote %d bytes that differ from the %d golden bytes", buf.Len(), len(want))
	}
}

// TestReadGoldenFiles: both decoders return the generated trace, the gob
// bit for bit and the CSV at its 6-significant-digit quantization.
func TestReadGoldenFiles(t *testing.T) {
	want := goldenTrace(t)
	fromGob, err := ReadGob(bytes.NewReader(readGolden(t, goldenGob)))
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(bytes.NewReader(readGolden(t, goldenCSV)))
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Trace{fromGob, fromCSV} {
		if got.NumVMs() != want.NumVMs() || got.NumSteps() != want.NumSteps() || got.StepSeconds != want.StepSeconds {
			t.Fatalf("decoded %d VMs × %d steps at %v s, want %d × %d at %v s",
				got.NumVMs(), got.NumSteps(), got.StepSeconds, want.NumVMs(), want.NumSteps(), want.StepSeconds)
		}
		for i := 0; i < want.NumVMs(); i++ {
			if got.Names[i] != want.Names[i] || got.Sectors[i] != want.Sectors[i] {
				t.Fatalf("VM %d decoded as %q/%v, want %q/%v", i, got.Names[i], got.Sectors[i], want.Names[i], want.Sectors[i])
			}
		}
	}
	for i := 0; i < want.NumVMs(); i++ {
		for k := 0; k < want.NumSteps(); k++ {
			u := want.At(i, k)
			if g := fromGob.At(i, k); g != u {
				t.Fatalf("gob VM %d step %d = %v, want %v", i, k, g, u)
			}
			q, _ := strconv.ParseFloat(strconv.FormatFloat(u, 'g', 6, 64), 64)
			if c := fromCSV.At(i, k); c != q {
				t.Fatalf("CSV VM %d step %d = %v, want %v", i, k, c, q)
			}
		}
	}
}
