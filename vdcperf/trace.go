package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vdcpower/internal/telemetry"
)

// spanSeconds returns the durations of every span with the given name.
func spanSeconds(recs []telemetry.SpanRecord, name string) []float64 {
	var out []float64
	for _, rec := range recs {
		if rec.Phase == telemetry.PhaseSpan && rec.Name == name {
			out = append(out, rec.Dur)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// selfRow is one line of the self-time table.
type selfRow struct {
	track, name string
	count       int
	total, self float64 // seconds
}

// selfTimes folds span records into per-(track, name) rows. A span's self
// time is its duration minus the time its children cover. Within a track
// the records come in emission order, in which every child ends, and so
// is emitted, before its parent.
func selfTimes(recs []telemetry.SpanRecord) []selfRow {
	idx := map[[2]string]int{}
	var rows []selfRow
	track := ""
	var covered []float64 // per depth: finished children's time not yet claimed by their parent
	for _, rec := range recs {
		if rec.Phase != telemetry.PhaseSpan {
			continue
		}
		if rec.Track != track {
			track, covered = rec.Track, covered[:0]
		}
		for len(covered) <= rec.Depth+1 {
			covered = append(covered, 0)
		}
		self := rec.Dur - covered[rec.Depth+1]
		covered[rec.Depth+1] = 0
		covered[rec.Depth] += rec.Dur
		k := [2]string{rec.Track, rec.Name}
		i, ok := idx[k]
		if !ok {
			i = len(rows)
			idx[k] = i
			rows = append(rows, selfRow{track: rec.Track, name: rec.Name})
		}
		rows[i].count++
		rows[i].total += rec.Dur
		rows[i].self += self
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

// selfTimeTable renders the self-time table.
func selfTimeTable(rows []selfRow) string {
	all := 0.0
	for _, r := range rows {
		all += r.self
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-24s %9s %12s %12s %7s\n", "track", "span", "count", "total_ms", "self_ms", "self_%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-24s %9d %12.3f %12.3f %7.2f\n", r.track, r.name, r.count, 1e3*r.total, 1e3*r.self, 100*r.self/all)
	}
	return b.String()
}

// writeTrace writes the traced run's spans as Chrome-trace JSON and its
// self-time table under dir, and returns the table.
func writeTrace(dir, name string, tr *telemetry.Tracer) (string, error) {
	if n := tr.Dropped(); n > 0 {
		return "", fmt.Errorf("the tracer dropped %d spans", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	recs := tr.Snapshot()
	var js bytes.Buffer
	if err := telemetry.WriteChromeTrace(&js, recs); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".trace.json"), js.Bytes(), 0o644); err != nil {
		return "", err
	}
	table := selfTimeTable(selfTimes(recs))
	return table, os.WriteFile(filepath.Join(dir, name+".selftime.txt"), []byte(table), 0o644)
}
