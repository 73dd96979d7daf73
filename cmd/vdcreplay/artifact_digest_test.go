package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"path/filepath"
	"testing"
)

// googleSpec is the committed Google-format replay spec CI's
// replay-smoke job runs.
const googleSpec = "../../testdata/replay/google.json"

// TestArtifactDigests pins the FNV-64a digests of what vdcreplay writes
// for the committed Google-format spec:
//   - `-spec google.json -out T -provenance P`: its stdout, the trace CSV
//     T and the provenance JSON P;
//   - `-spec S -pace -out O`, where S is a copy of that spec with
//     "speedup": 1e9 and the corpus path made absolute: the record stream
//     O (the stderr summary is not pinned).
//
// The digests were recorded before the replay path became pull-only. A
// change that moves one re-pins it in the same commit and says here what
// moved and why.
func TestArtifactDigests(t *testing.T) {
	dir := t.TempDir()
	t.Run("build", func(t *testing.T) {
		out, prov := filepath.Join(dir, "T.csv"), filepath.Join(dir, "P.json")
		var stdout bytes.Buffer
		if err := run([]string{"-spec", googleSpec, "-out", out, "-provenance", prov}, &stdout); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "stdout", stdout.Bytes(), 0x308a82f3e597eb46)
		checkDigest(t, "trace", read(t, out), 0xd68d5a7898a40fe2)
		checkDigest(t, "provenance", read(t, prov), 0x53673a0c50504bfa)
	})
	t.Run("pace", func(t *testing.T) {
		var spec map[string]any
		if err := json.Unmarshal(read(t, googleSpec), &spec); err != nil {
			t.Fatal(err)
		}
		corpus, err := filepath.Abs(filepath.Join(filepath.Dir(googleSpec), spec["path"].(string)))
		if err != nil {
			t.Fatal(err)
		}
		spec["path"], spec["speedup"] = corpus, 1e9
		buf, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		paced, out := filepath.Join(dir, "S.json"), filepath.Join(dir, "O.csv")
		write(t, paced, string(buf))
		if err := run([]string{"-spec", paced, "-pace", "-out", out}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "stream", read(t, out), 0x4f7e81968e873a87)
	})
}

func checkDigest(t *testing.T, what string, b []byte, want uint64) {
	t.Helper()
	h := fnv.New64a()
	h.Write(b)
	if got := h.Sum64(); got != want {
		t.Errorf("%s digest = %#x, want %#x", what, got, want)
	}
}
