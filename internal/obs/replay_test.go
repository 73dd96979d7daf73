package obs

import (
	"reflect"
	"strings"
	"testing"

	"vdcpower/internal/trace"
)

// shard is one worker's provenance of the flash-crowd + time-warp replay
// of one corpus at one seed.
func shard(records, distorted, flash, warp int) *trace.Provenance {
	return &trace.Provenance{
		Source: "google-usage:google_mini.csv", Seed: 41,
		Records: records, Distorted: distorted,
		Distortions: []trace.DistortionStat{
			{Name: "flash-crowd", Params: "start=4 steps=6", Distorted: flash},
			{Name: "time-warp", Params: "max_lag_steps=3", Distorted: warp},
		},
	}
}

// withReplay builds a scorecard carrying p.
func withReplay(p *trace.Provenance) *Scorecard {
	s := New(Config{})
	s.SetProvenance(p)
	return s
}

func TestProvenanceMergeSumsShards(t *testing.T) {
	agg := New(Config{})
	for _, p := range []*trace.Provenance{shard(100, 45, 7, 40), shard(60, 27, 3, 25)} {
		if err := agg.Merge(withReplay(p)); err != nil {
			t.Fatal(err)
		}
	}
	got, want := agg.Report().Replay, shard(160, 72, 10, 65)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged provenance %+v, want %+v", got, want)
	}
}

func TestProvenanceMergeRefusesOtherReplays(t *testing.T) {
	for name, mutate := range map[string]func(*trace.Provenance){
		"source":           func(p *trace.Provenance) { p.Source = "azure-vm:azure_mini.csv.gz" },
		"seed":             func(p *trace.Provenance) { p.Seed++ },
		"distortion count": func(p *trace.Provenance) { p.Distortions = p.Distortions[:1] },
		"distortion name":  func(p *trace.Provenance) { p.Distortions[1].Name = "burst" },
	} {
		other := shard(60, 27, 3, 25)
		mutate(other)
		err := withReplay(shard(100, 45, 7, 40)).Merge(withReplay(other))
		if err == nil || !strings.Contains(err.Error(), "replay") {
			t.Fatalf("%s: merge error = %v, want a replay-provenance refusal", name, err)
		}
	}
}

// The scorecard keeps its own copy: neither SetProvenance nor Merge
// writes through a provenance the caller still holds, and the report's
// copy is the reader's.
func TestProvenanceOwnedByScorecard(t *testing.T) {
	held, other := shard(100, 45, 7, 40), shard(60, 27, 3, 25)
	s, o := withReplay(held), withReplay(other)
	for i := 0; i < 2; i++ {
		if err := s.Merge(o); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(held, shard(100, 45, 7, 40)) || !reflect.DeepEqual(other, shard(60, 27, 3, 25)) {
		t.Fatalf("caller's provenances changed: %+v, %+v", held, other)
	}
	rep := s.Report().Replay
	rep.Records = -1
	rep.Distortions[0].Distorted = -1
	if got := s.Report().Replay; got.Records != 220 || got.Distortions[0].Distorted != 13 {
		t.Fatalf("editing a report changed the scorecard: %+v", got)
	}
	// An empty scorecard adopts a copy, so merging into it again sums
	// into its own provenance, not into o's.
	empty := New(Config{})
	for i := 0; i < 2; i++ {
		if err := empty.Merge(o); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Report().Replay; !reflect.DeepEqual(got, shard(60, 27, 3, 25)) {
		t.Fatalf("merging into an empty scorecard aliased the other's provenance: %+v", got)
	}
}
