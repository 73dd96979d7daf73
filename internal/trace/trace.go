// Package trace ingests real-world utilization traces and replays them
// deterministically into the rest of the system. The paper's Fig. 6
// results were produced on one proprietary trace; the public Google
// cluster trace (task-usage tables) and the Azure VM traces map cleanly
// onto the same schema — per-VM CPU utilization sampled on a fixed grid
// — so this package turns those formats into `workload.Trace` streams
// the simulators, the serve loop, and the chaos/bench suites can all
// consume (DESIGN §15).
//
// Three design rules govern the package:
//
//  1. Ingestion is streaming and constant-memory. Decoders read one CSV
//     row at a time through a bounded buffer and never slurp the file;
//     the grid resampler keeps O(#VMs) state, not O(#rows). Decoding a
//     million-row input holds peak heap under a fixed bound (asserted
//     by TestIngestConstantMemory).
//
//  2. Replay is deterministic. Every stochastic choice a distortion
//     makes is a pure FNV-64+splitmix64 hash of (seed, layer, vm,
//     step), the same discipline as internal/fault — same-seed replays
//     are byte-identical, and adding a distortion cannot perturb the
//     draws of another.
//
//  3. The wall clock appears only in pace.go, whose Pacer a caller
//     waits on from its own pull loop (cmd/vdcreplay -pace), mirroring
//     internal/bench's sampler.go; vdclint's determinism analyzer
//     enforces the boundary structurally.
package trace

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
)

// Record is one normalized utilization sample: VM identity, seconds
// since the trace epoch, and CPU utilization as a fraction of the VM's
// peak requirement.
type Record struct {
	VM   string
	Time float64 // seconds since the trace epoch
	Util float64 // [0,1]
}

// Source streams records. Next returns io.EOF after the last record.
// Timestamps are strictly increasing per VM; the global interleaving is
// deterministic for a given input but not necessarily sorted (a grid
// resampler flushes a VM's bucket when that VM's own next sample
// arrives). Sources hold bounded buffers only — never the whole input.
type Source interface {
	Next() (Record, error)
}

// RecordError is a typed decode rejection carrying the input line so
// operators can find the offending row in a multi-gigabyte trace file.
type RecordError struct {
	Format string // "google-usage", "azure-vm", ...
	Line   int    // 1-based input line
	Reason string
}

// Error implements error.
func (e *RecordError) Error() string {
	return fmt.Sprintf("trace: %s line %d: %s", e.Format, e.Line, e.Reason)
}

// IsRecordError reports whether err (or anything it wraps) is a decode
// rejection rather than an I/O failure.
func IsRecordError(err error) bool {
	var re *RecordError
	return errors.As(err, &re)
}

// maxLineBytes bounds one input line; a longer line means the input is
// not the claimed format (both public corpora keep rows well under 1 KiB),
// and an unbounded line would break the constant-memory contract.
const maxLineBytes = 64 * 1024

// lineBound enforces maxLineBytes on a byte stream: csv.Reader grows
// its field buffer to hold the longest line it sees, so without this
// guard a single pathological line could defeat the constant-memory
// contract.
type lineBound struct {
	r   io.Reader
	run int
}

// Read implements io.Reader.
func (l *lineBound) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	for _, b := range p[:n] {
		if b == '\n' {
			l.run = 0
		} else if l.run++; l.run > maxLineBytes {
			return 0, fmt.Errorf("trace: input line exceeds %d bytes — not a supported trace format", maxLineBytes)
		}
	}
	return n, err
}

// openMaybeGzip sniffs the two-byte gzip magic and transparently
// decompresses; plain inputs pass through. The returned reader is
// buffered either way.
func openMaybeGzip(r io.Reader) (*bufio.Reader, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	magic, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: sniffing input: %w", err)
	}
	if len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip input: %w", err)
		}
		return bufio.NewReaderSize(zr, 64*1024), nil
	}
	return br, nil
}

// validUtil reports whether u is a usable utilization fraction.
// Negative, NaN and Inf are rejected outright; values above 1 are
// clamped by the adapters (both public corpora contain brief >100%
// readings from hypervisor accounting).
func validUtil(u float64) bool {
	return !math.IsNaN(u) && !math.IsInf(u, 0) && u >= 0
}

func clamp01(u float64) float64 { return math.Max(0, math.Min(1, u)) }
