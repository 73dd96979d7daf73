// Command vdclint runs the project-native static analyzers of
// internal/lint over the module: the syntactic invariants (determinism,
// telemetry, floatcompare, goroutine, panicpolicy, errcheck) and the
// dataflow-grade family (units, hotalloc, mutexcopy, lockorder,
// chanleak); see README.md "Static analysis & reproducibility
// invariants" and DESIGN.md §11.
//
// Usage:
//
//	go run ./cmd/vdclint [flags] [./... | ./internal/mpc ...]
//
// Flags:
//
//	-json            emit findings as a JSON array (for CI)
//	-enable  a,b,c   run only the named analyzers
//	-disable a,b,c   run all but the named analyzers
//	-list            print the analyzer registry and exit
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on
// loader/usage errors. Suppress an individual finding at its line (or
// the line above) with //lint:ignore <rule>[,<rule>] <reason>.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"vdcpower/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vdclint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	list := fs.Bool("list", false, "print the analyzer registry and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h printed the usage
		}
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(os.Stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(analyzers, *enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdclint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdclint:", err)
		return 2
	}
	mod, err := lint.LoadModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdclint:", err)
		return 2
	}
	pkgs, err := mod.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdclint:", err)
		return 2
	}

	findings := mod.Analyze(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "vdclint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "vdclint: %d findings in %d packages\n", len(findings), len(pkgs))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable/-disable, rejecting unknown names so
// typos fail loudly instead of silently running nothing.
func selectAnalyzers(all []*lint.Analyzer, enable, disable string) ([]*lint.Analyzer, error) {
	if enable != "" && disable != "" {
		return nil, fmt.Errorf("-enable and -disable are mutually exclusive")
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	parse := func(csv string) ([]string, error) {
		var names []string
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if byName[n] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (have: %s)", n, names1(all))
			}
			names = append(names, n)
		}
		return names, nil
	}
	switch {
	case enable != "":
		names, err := parse(enable)
		if err != nil {
			return nil, err
		}
		var out []*lint.Analyzer
		for _, a := range all { // preserve registry order
			for _, n := range names {
				if a.Name == n {
					out = append(out, a)
				}
			}
		}
		return out, nil
	case disable != "":
		names, err := parse(disable)
		if err != nil {
			return nil, err
		}
		skip := map[string]bool{}
		for _, n := range names {
			skip[n] = true
		}
		var out []*lint.Analyzer
		for _, a := range all {
			if !skip[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	default:
		return all, nil
	}
}

func names1(all []*lint.Analyzer) string {
	var ns []string
	for _, a := range all {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}
