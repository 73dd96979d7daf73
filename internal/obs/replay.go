package obs

import (
	"fmt"

	"vdcpower/internal/trace"
)

// SetProvenance attaches a copy of a replay's provenance to the
// scorecard, so a scorecard produced from a replay carries enough to
// reproduce its input bit for bit; the scorecard owns its copy, since
// mergeReplay adds into it and the caller may still hold p (nil-safe,
// single-writer like every other recorder; a later call overwrites).
func (s *Scorecard) SetProvenance(p *trace.Provenance) {
	if s == nil {
		return
	}
	s.replay = p.Clone()
}

// mergeReplay folds two provenances: an empty side adopts the other;
// same source and seed sum their record counts (per-worker shards of
// one replay); different sources cannot be combined.
func mergeReplay(a, b *trace.Provenance) (*trace.Provenance, error) {
	if b == nil {
		return a, nil
	}
	if a == nil {
		return b.Clone(), nil
	}
	if a.Source != b.Source || a.Seed != b.Seed {
		return nil, fmt.Errorf("obs: merging scorecards with different replay provenance (%s seed %d vs %s seed %d)",
			a.Source, a.Seed, b.Source, b.Seed)
	}
	if len(a.Distortions) != len(b.Distortions) {
		return nil, fmt.Errorf("obs: merging replay provenances with %d vs %d distortions", len(a.Distortions), len(b.Distortions))
	}
	a.Records += b.Records
	a.Distorted += b.Distorted
	for i := range b.Distortions {
		if a.Distortions[i].Name != b.Distortions[i].Name {
			return nil, fmt.Errorf("obs: replay distortion %d is %q on one side, %q on the other",
				i, a.Distortions[i].Name, b.Distortions[i].Name)
		}
		a.Distortions[i].Distorted += b.Distortions[i].Distorted
	}
	return a, nil
}
