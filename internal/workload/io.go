package workload

import (
	"bufio"
	"encoding/csv"
	"encoding/gob"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV stores the trace in a simple interchange format: a header row
// `step_seconds,<value>` then one row per VM: name, sector, samples...
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"step_seconds", strconv.FormatFloat(t.StepSeconds, 'g', -1, 64)}); err != nil {
		return err
	}
	for i := 0; i < t.vms; i++ {
		row := make([]string, 0, t.steps+2)
		row = append(row, t.Names[i], strconv.Itoa(int(t.Sectors[i])))
		for k := 0; k < t.steps; k++ {
			row = append(row, strconv.FormatFloat(t.At(i, k), 'g', 6, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading header: %w", err)
	}
	if len(header) != 2 || header[0] != "step_seconds" {
		return nil, fmt.Errorf("workload: malformed header %v", header)
	}
	step, err := strconv.ParseFloat(header[1], 64)
	if err != nil {
		return nil, fmt.Errorf("workload: bad step: %w", err)
	}
	var (
		names   []string
		sectors []Sector
		series  [][]float64
	)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: reading row: %w", err)
		}
		if len(row) < 3 {
			return nil, fmt.Errorf("workload: row for %q too short", row[0])
		}
		sector, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("workload: bad sector for %q: %w", row[0], err)
		}
		if len(series) > 0 && len(row)-2 != len(series[0]) {
			return nil, &ShapeError{VM: row[0], Got: len(row) - 2, Want: len(series[0])}
		}
		samples := make([]float64, len(row)-2)
		for i, f := range row[2:] {
			u, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: bad sample %d for %q: %w", i, row[0], err)
			}
			if err := checkSample(row[0], i, u); err != nil {
				return nil, err
			}
			samples[i] = u
		}
		names = append(names, row[0])
		sectors = append(sectors, Sector(sector))
		series = append(series, samples)
	}
	return FromRows(step, names, sectors, series)
}

// gobRows is a trace as gob carries it: per-VM rows, as WriteGob has
// always written them.
type gobRows struct {
	StepSeconds float64
	Names       []string
	Sectors     []Sector
	Series      [][]float64 // [vm][step]
}

// gobWire returns rows as the value gob encodes and decodes. gob records
// the type's name, so the wire type is named Trace, and numbers types per
// process in order of first use, so reading and writing share this one
// type: every file keeps its bytes.
func gobWire(rows *gobRows) any {
	type Trace gobRows
	return (*Trace)(rows)
}

// WriteGob stores the trace in the compact binary format used for large
// traces (the full 5,415-VM trace is ~30 MB as CSV). The write is
// buffered and the flush error propagated — a full disk surfaces here,
// not as a silently truncated file.
func (t *Trace) WriteGob(w io.Writer) error {
	rows := gobRows{
		StepSeconds: t.StepSeconds,
		Names:       t.Names,
		Sectors:     t.Sectors,
		Series:      make([][]float64, t.vms),
	}
	for i := range rows.Series {
		row := make([]float64, t.steps)
		for k := range row {
			row[k] = t.At(i, k)
		}
		rows.Series[i] = row
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(gobWire(&rows)); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadGob parses a trace written by WriteGob, applying the same typed
// rejections as ReadCSV: a ragged series is a *ShapeError, an
// out-of-range sample a *SampleError.
func ReadGob(r io.Reader) (*Trace, error) {
	var rows gobRows
	if err := gob.NewDecoder(r).Decode(gobWire(&rows)); err != nil {
		return nil, fmt.Errorf("workload: decoding gob: %w", err)
	}
	return FromRows(rows.StepSeconds, rows.Names, rows.Sectors, rows.Series)
}

// name is a bounds-tolerant Names lookup for error paths (a corrupt gob
// may carry fewer names than series).
func name(t *Trace, i int) string {
	if i < len(t.Names) {
		return t.Names[i]
	}
	return fmt.Sprintf("#%d", i)
}
