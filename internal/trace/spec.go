package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vdcpower/internal/workload"
)

// The replay spec formats.
const (
	FormatGoogleUsage = "google-usage" // Google cluster-trace task-usage CSV
	FormatAzureVM     = "azure-vm"     // Azure public VM-trace CSV
	FormatWorkloadCSV = "workload-csv" // this repo's workload.WriteCSV output
	FormatWorkloadGob = "workload-gob" // this repo's workload.WriteGob output
	FormatSynthetic   = "synthetic"    // workload.Generate (no corpus file)
)

// SynthSpec parameterizes the synthetic format (workload.Generate).
type SynthSpec struct {
	VMs          int   `json:"vms"`
	Days         int   `json:"days,omitempty"`
	StepsPerHour int   `json:"steps_per_hour,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
}

// DistortionSpec is one pipeline layer in a replay spec. Kind selects
// the distortion; the remaining fields parameterize it (unused fields
// for a kind must stay zero).
type DistortionSpec struct {
	Kind string `json:"kind"`

	// flash-crowd
	StartStep  int     `json:"start_step,omitempty"`
	Steps      int     `json:"steps,omitempty"`
	Amplify    float64 `json:"amplify,omitempty"`
	VMFraction float64 `json:"vm_fraction,omitempty"`

	// burst
	Prob     float64 `json:"prob,omitempty"`
	MinSteps int     `json:"min_steps,omitempty"`
	MaxSteps int     `json:"max_steps,omitempty"`
	MinLevel float64 `json:"min_level,omitempty"`
	MaxLevel float64 `json:"max_level,omitempty"`

	// sector-remix
	Salt int64 `json:"salt,omitempty"`

	// time-warp
	MaxLagSteps int `json:"max_lag_steps,omitempty"`
}

// build instantiates the distortion a spec describes.
func (d DistortionSpec) build() (Distortion, error) {
	switch d.Kind {
	case "flash-crowd":
		if d.Steps <= 0 || d.Amplify <= 1 || d.VMFraction <= 0 || d.VMFraction > 1 {
			return nil, fmt.Errorf("trace: flash-crowd needs steps>0, amplify>1, vm_fraction in (0,1] (got steps=%d amplify=%v vm_fraction=%v)",
				d.Steps, d.Amplify, d.VMFraction)
		}
		return FlashCrowd{StartStep: d.StartStep, Steps: d.Steps, Amplify: d.Amplify, VMFraction: d.VMFraction}, nil
	case "burst":
		if d.Prob <= 0 || d.Prob > 1 || d.MinSteps <= 0 || d.MaxSteps < d.MinSteps ||
			d.MinLevel < 0 || d.MaxLevel < d.MinLevel || d.MaxLevel > 1 {
			return nil, fmt.Errorf("trace: burst needs prob in (0,1], 0 < min_steps <= max_steps, 0 <= min_level <= max_level <= 1 (got prob=%v steps=[%d,%d] level=[%v,%v])",
				d.Prob, d.MinSteps, d.MaxSteps, d.MinLevel, d.MaxLevel)
		}
		return BurstInject{Prob: d.Prob, MinSteps: d.MinSteps, MaxSteps: d.MaxSteps, MinLevel: d.MinLevel, MaxLevel: d.MaxLevel}, nil
	case "sector-remix":
		return SectorRemix{Salt: d.Salt}, nil
	case "time-warp":
		if d.MaxLagSteps <= 0 {
			return nil, fmt.Errorf("trace: time-warp needs max_lag_steps>0 (got %d)", d.MaxLagSteps)
		}
		return &TimeWarp{MaxLagSteps: d.MaxLagSteps}, nil
	}
	return nil, fmt.Errorf("trace: unknown distortion kind %q (flash-crowd, burst, sector-remix or time-warp)", d.Kind)
}

// ReplaySpec is the JSON document cmd/vdcreplay and dcsim -replay
// consume: which corpus to read, how to grid it, and which seeded
// distortions to run. Unknown fields are rejected so typos fail loudly.
type ReplaySpec struct {
	// Format selects the decoder (the Format* constants).
	Format string `json:"format"`
	// Path locates the corpus, relative to the spec file's directory
	// (absolute paths pass through). Gzip is detected by magic bytes.
	// Unused for the synthetic format.
	Path string `json:"path,omitempty"`
	// Seed drives every distortion draw and, for sector assignment, the
	// base salt.
	Seed int64 `json:"seed"`
	// Speedup > 0 paces emission against the wall clock (cmd/vdcreplay
	// -pace only; trace assembly never paces). 0 replays unpaced.
	Speedup float64 `json:"speedup,omitempty"`
	// Grid configures resampling for the raw formats; workload and
	// synthetic sources are already on their own grid.
	Grid GridConfig `json:"grid,omitempty"`
	// Edge aligns ragged VM coverage when assembling the trace
	// (hold/zero/error; default hold).
	Edge string `json:"edge,omitempty"`
	// MaxVMs / MaxSteps bound the assembled trace.
	MaxVMs   int `json:"max_vms,omitempty"`
	MaxSteps int `json:"max_steps,omitempty"`
	// Synthetic parameterizes the synthetic format.
	Synthetic *SynthSpec `json:"synthetic,omitempty"`
	// Distortions run in order on every record.
	Distortions []DistortionSpec `json:"distortions,omitempty"`

	dir string // spec file's directory, for resolving Path
}

// LoadSpec reads and validates a replay spec file. Relative corpus
// paths resolve against the spec file's directory, so a spec and its
// corpus travel together.
func LoadSpec(path string) (*ReplaySpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errcheck read-side close; the spec was fully decoded
	defer f.Close()
	sp, err := ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sp.dir = filepath.Dir(path)
	return sp, nil
}

// ParseSpec decodes and validates a replay spec document. Relative
// corpus paths resolve against the current directory; prefer LoadSpec
// for file-based specs.
func ParseSpec(r io.Reader) (*ReplaySpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp ReplaySpec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("trace: replay spec: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Validate checks the spec without touching the filesystem.
func (sp *ReplaySpec) Validate() error {
	switch sp.Format {
	case FormatGoogleUsage, FormatAzureVM, FormatWorkloadCSV, FormatWorkloadGob:
		if sp.Path == "" {
			return fmt.Errorf("trace: replay spec: format %q needs a path", sp.Format)
		}
	case FormatSynthetic:
		if sp.Synthetic == nil || sp.Synthetic.VMs <= 0 {
			return fmt.Errorf("trace: replay spec: synthetic format needs a synthetic section with vms>0")
		}
	default:
		return fmt.Errorf("trace: replay spec: unknown format %q (%s)", sp.Format,
			strings.Join([]string{FormatGoogleUsage, FormatAzureVM, FormatWorkloadCSV, FormatWorkloadGob, FormatSynthetic}, ", "))
	}
	if sp.Speedup < 0 {
		return fmt.Errorf("trace: replay spec: speedup must be >= 0 (got %v)", sp.Speedup)
	}
	if err := sp.Grid.Gap.Validate(); err != nil {
		return err
	}
	if err := GapPolicy(sp.Edge).Validate(); err != nil {
		return err
	}
	for i, d := range sp.Distortions {
		if _, err := d.build(); err != nil {
			return fmt.Errorf("trace: replay spec: distortion %d: %w", i, err)
		}
	}
	return nil
}

// SectorSalt is the salt Build collects with for VM→sector assignment:
// the replay seed, overridden by the last sector-remix distortion if any.
func (sp *ReplaySpec) SectorSalt() int64 {
	salt := sp.Seed
	for _, d := range sp.Distortions {
		if d.Kind == "sector-remix" {
			salt = d.Salt
		}
	}
	return salt
}

// StepSeconds is the grid interval the spec resolves to.
func (sp *ReplaySpec) StepSeconds() float64 {
	if sp.Grid.StepSeconds > 0 {
		return sp.Grid.StepSeconds
	}
	return DefaultStepSeconds
}

// resolve maps the corpus path relative to the spec file's directory.
func (sp *ReplaySpec) resolve() string {
	if sp.dir == "" || filepath.IsAbs(sp.Path) {
		return sp.Path
	}
	return filepath.Join(sp.dir, sp.Path)
}

// open builds the gridded source the spec describes. The caller must
// Close the returned closer (a no-op for the synthetic format) after
// draining the source.
func (sp *ReplaySpec) open() (Source, io.Closer, error) {
	switch sp.Format {
	case FormatSynthetic:
		cfg := workload.GenConfig{NumVMs: sp.Synthetic.VMs, Days: sp.Synthetic.Days, StepsPerHour: sp.Synthetic.StepsPerHour, Seed: sp.Synthetic.Seed}
		if cfg.Days <= 0 {
			cfg.Days = 1
		}
		if cfg.StepsPerHour <= 0 {
			cfg.StepsPerHour = 4
		}
		tr, err := workload.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		return FromTrace(tr), nopCloser{}, nil
	case FormatWorkloadCSV, FormatWorkloadGob:
		f, err := os.Open(sp.resolve())
		if err != nil {
			return nil, nil, err
		}
		br, err := openMaybeGzip(f)
		if err != nil {
			//lint:ignore errcheck the sniff error is already being returned
			f.Close()
			return nil, nil, err
		}
		var tr *workload.Trace
		if sp.Format == FormatWorkloadCSV {
			tr, err = workload.ReadCSV(br)
		} else {
			tr, err = workload.ReadGob(br)
		}
		cerr := f.Close()
		if err != nil {
			return nil, nil, err
		}
		if cerr != nil {
			return nil, nil, cerr
		}
		return FromTrace(tr), nopCloser{}, nil
	}
	// Raw formats: stream through the decoder and the grid resampler.
	f, err := os.Open(sp.resolve())
	if err != nil {
		return nil, nil, err
	}
	var raw Source
	switch sp.Format {
	case FormatGoogleUsage:
		raw, err = NewGoogleUsage(f)
	case FormatAzureVM:
		raw, err = NewAzureVM(f)
	}
	if err != nil {
		//lint:ignore errcheck the decode error is already being returned
		f.Close()
		return nil, nil, err
	}
	grid, err := NewGrid(raw, sp.Grid)
	if err != nil {
		//lint:ignore errcheck the config error is already being returned
		f.Close()
		return nil, nil, err
	}
	return grid, f, nil
}

// SourceLabel renders the spec's corpus identity for provenance.
func (sp *ReplaySpec) SourceLabel() string {
	if sp.Format == FormatSynthetic {
		return fmt.Sprintf("%s:vms=%d,seed=%d", sp.Format, sp.Synthetic.VMs, sp.Synthetic.Seed)
	}
	return sp.Format + ":" + filepath.Base(sp.Path)
}

// Stream opens the corpus, grids it, builds the spec's distortions and
// wraps them in a Stream with the spec's step and seed; the stream's
// provenance names the spec's SourceLabel. It is the one way to open a
// spec: Build collects from it, serve feeds from it and vdcreplay -pace
// paces it. The caller must Close the returned closer (a no-op for the
// in-memory formats) after draining the stream.
func (sp *ReplaySpec) Stream() (*Stream, io.Closer, error) {
	// A fresh pipeline per stream: stateful distortions must not be
	// shared across replays.
	pipeline := make([]Distortion, len(sp.Distortions))
	for i, d := range sp.Distortions {
		built, err := d.build()
		if err != nil {
			return nil, nil, err
		}
		pipeline[i] = built
	}
	src, closer, err := sp.open()
	if err != nil {
		return nil, nil, err
	}
	st := NewStream(src, ReplayConfig{StepSeconds: sp.StepSeconds(), Seed: sp.Seed, Distortions: pipeline})
	st.prov.Source = sp.SourceLabel()
	return st, closer, nil
}

// Build runs the full pipeline — decode, grid, distort, collect — and
// returns the assembled trace plus its provenance. Build never paces
// (pacing is cmd/vdcreplay's concern); the result is a deterministic
// function of (corpus bytes, spec).
func (sp *ReplaySpec) Build() (*workload.Trace, *Provenance, error) {
	st, closer, err := sp.Stream()
	if err != nil {
		return nil, nil, err
	}
	//lint:ignore errcheck read-side close; the stream was drained
	defer closer.Close()
	tr, err := Collect(st, CollectConfig{
		StepSeconds: sp.StepSeconds(),
		Edge:        GapPolicy(sp.Edge),
		SectorSalt:  sp.SectorSalt(),
		MaxVMs:      sp.MaxVMs,
		MaxSteps:    sp.MaxSteps,
	})
	if err != nil {
		return nil, nil, err
	}
	return tr, st.Provenance(), nil
}

// nopCloser satisfies io.Closer for sources with nothing to close.
type nopCloser struct{}

// Close implements io.Closer.
func (nopCloser) Close() error { return nil }
