package main

import (
	"os"
	"strings"
	"testing"

	"vdcpower/internal/lint"
)

func analyzerNames(as []*lint.Analyzer) []string {
	var ns []string
	for _, a := range as {
		ns = append(ns, a.Name)
	}
	return ns
}

func TestSelectAnalyzersEnable(t *testing.T) {
	all := lint.Analyzers()
	got, err := selectAnalyzers(all, "units,errcheck", "")
	if err != nil {
		t.Fatal(err)
	}
	// Registry order is preserved regardless of the -enable order.
	want := "errcheck,units"
	if s := strings.Join(analyzerNames(got), ","); s != want {
		t.Fatalf("enabled = %s, want %s", s, want)
	}
}

func TestSelectAnalyzersDisable(t *testing.T) {
	all := lint.Analyzers()
	got, err := selectAnalyzers(all, "", "hotalloc, chanleak")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all)-2 {
		t.Fatalf("disabled 2 of %d, got %d", len(all), len(got))
	}
	for _, a := range got {
		if a.Name == "hotalloc" || a.Name == "chanleak" {
			t.Fatalf("analyzer %s survived -disable", a.Name)
		}
	}
}

func TestSelectAnalyzersUnknownName(t *testing.T) {
	all := lint.Analyzers()
	for _, csv := range []string{"unitz", "units,erRcheck", "lockordr"} {
		if _, err := selectAnalyzers(all, csv, ""); err == nil {
			t.Errorf("-enable %q: want error, got nil", csv)
		} else if !strings.Contains(err.Error(), "unknown analyzer") {
			t.Errorf("-enable %q: error %q does not name the unknown analyzer", csv, err)
		}
		if _, err := selectAnalyzers(all, "", csv); err == nil {
			t.Errorf("-disable %q: want error, got nil", csv)
		}
	}
}

func TestSelectAnalyzersMutuallyExclusive(t *testing.T) {
	if _, err := selectAnalyzers(lint.Analyzers(), "units", "errcheck"); err == nil {
		t.Fatal("want error when both -enable and -disable are set")
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	f()
	w.Close()
	return <-done
}

func TestRunListShowsAllAnalyzers(t *testing.T) {
	var code int
	out := captureStdout(t, func() { code = run([]string{"-list"}) })
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{
		"determinism", "telemetry", "floatcompare", "goroutine", "panicpolicy",
		"errcheck", "units", "hotalloc", "mutexcopy", "lockorder", "chanleak",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output lacks analyzer %q", name)
		}
	}
}

func TestRunRejectsUnknownAnalyzer(t *testing.T) {
	if code := run([]string{"-enable", "no-such-analyzer", "./..."}); code != 2 {
		t.Fatalf("unknown -enable exit = %d, want 2", code)
	}
	if code := run([]string{"-enable", "units", "-disable", "errcheck", "./..."}); code != 2 {
		t.Fatalf("conflicting flags exit = %d, want 2", code)
	}
}

// -h is a request for the usage, not an error: run returns exit status 0.
func TestHelpFlag(t *testing.T) {
	if code := run([]string{"-h"}); code != 0 {
		t.Fatalf("run -h = %d, want 0", code)
	}
}
