package trace

import "math"

// DistortionStat is one pipeline layer's provenance: what ran, with
// which parameters, and how many records it touched.
type DistortionStat struct {
	Name      string `json:"name"`
	Params    string `json:"params,omitempty"`
	Distorted int    `json:"distorted"`
}

// Provenance records where a replay came from and exactly how it was
// distorted — enough to reproduce it bit for bit from the same corpus.
// It is the one report a replay gives: a Stream keeps it, Build returns
// it beside the trace, and dcsim's verification report and the obs
// scorecard carry it.
type Provenance struct {
	Source      string           `json:"source"`
	Seed        int64            `json:"seed"`
	Records     int              `json:"records"`
	Distorted   int              `json:"distorted"`
	Distortions []DistortionStat `json:"distortions,omitempty"`
}

// ReplayConfig parameterizes one replay.
type ReplayConfig struct {
	// StepSeconds is the grid interval used to derive each record's
	// step index for the distortion hashes (default 900).
	StepSeconds float64
	// Seed drives every distortion draw. Same seed, same source, same
	// pipeline → byte-identical emission.
	Seed int64
	// Distortions run in order on every record.
	Distortions []Distortion
}

// Stream is the replay engine: a Source whose records pass through the
// distortion pipeline as they are read. The emitted stream is a
// deterministic function of (source, seed, pipeline), whoever pulls it
// and however fast. A Stream owns its distortion instances (TimeWarp
// holds per-VM state), so build one per replay; ReplaySpec.Stream does.
type Stream struct {
	src  Source
	cfg  ReplayConfig
	prov Provenance
}

// NewStream wraps src in the distortion pipeline. Its provenance names
// no source; ReplaySpec.Stream labels the streams it opens.
func NewStream(src Source, cfg ReplayConfig) *Stream {
	if cfg.StepSeconds <= 0 {
		cfg.StepSeconds = DefaultStepSeconds
	}
	st := &Stream{src: src, cfg: cfg, prov: Provenance{Seed: cfg.Seed}}
	st.prov.Distortions = make([]DistortionStat, len(cfg.Distortions))
	for i, d := range cfg.Distortions {
		st.prov.Distortions[i] = DistortionStat{Name: d.Name(), Params: d.Params()}
	}
	return st
}

// Clone deep-copies p, so the copy shares no counts with it (nil-safe).
func (p *Provenance) Clone() *Provenance {
	if p == nil {
		return nil
	}
	out := *p
	out.Distortions = append([]DistortionStat(nil), p.Distortions...)
	return &out
}

// Provenance snapshots the stream's provenance: the counts of the
// records read so far, final once Next has returned io.EOF. The caller
// owns the result.
func (st *Stream) Provenance() *Provenance {
	return st.prov.Clone()
}

// Next implements Source.
func (st *Stream) Next() (Record, error) {
	rec, err := st.src.Next()
	if err != nil {
		return Record{}, err
	}
	step := int(math.Round(rec.Time / st.cfg.StepSeconds))
	st.prov.Records++
	touched := false
	for i, d := range st.cfg.Distortions {
		out, hit := d.Apply(st.cfg.Seed, step, rec)
		if hit {
			st.prov.Distortions[i].Distorted++
			touched = true
		}
		rec = out
	}
	if touched {
		st.prov.Distorted++
	}
	return rec, nil
}
