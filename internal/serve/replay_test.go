package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"vdcpower/internal/trace"
)

// replayFeed opens a replay feed for s's applications over a fabricated
// Google-usage corpus of 6 VMs × 5 steps, flash-crowded in steps 1–2.
// Its one-step watermark makes each feed step read one grid step of
// records, so the stream's counts rise step by step.
func replayFeed(t *testing.T, s *Server, corpus []byte) (*trace.Stream, *trace.Feed) {
	t.Helper()
	src, err := trace.NewGoogleUsage(bytes.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := trace.NewGrid(src, trace.GridConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stream := trace.NewStream(grid, trace.ReplayConfig{Seed: 9, Distortions: []trace.Distortion{
		trace.FlashCrowd{StartStep: 1, Steps: 2, Amplify: 1.5, VMFraction: 0.5},
	}})
	feed, err := trace.NewFeed(stream, trace.FeedConfig{Apps: len(s.tb.Apps), Seed: 9, LagSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	return stream, feed
}

// concurrency reads every application's client population.
func concurrency(s *Server) []int {
	out := make([]int, len(s.tb.Apps))
	for i, a := range s.tb.Apps {
		out[i] = a.Concurrency()
	}
	return out
}

// scorecardReplay reads the replay section of /scorecard.
func scorecardReplay(t *testing.T, s *Server) *trace.Provenance {
	t.Helper()
	var doc struct {
		Replay *trace.Provenance `json:"replay"`
	}
	if err := json.Unmarshal(get(t, s.Handler(), "/scorecard").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Replay
}

// TestReplayDrivesConcurrency attaches a replay feed and steps until it
// runs out: every step's levels reach the applications, the last levels
// hold afterwards, and /scorecard carries the stream's provenance as it
// stands after every step — its record count rising step by step — and
// the final provenance once the feed has run out.
func TestReplayDrivesConcurrency(t *testing.T) {
	s := testServer(t)
	var corpus bytes.Buffer
	if _, err := trace.WriteGoogleUsage(&corpus, trace.FabConfig{VMs: 6, Steps: 5, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	// The levels to expect: an identical feed, pulled directly.
	_, ref := replayFeed(t, s, corpus.Bytes())
	var want [][]int
	for {
		levels, ok := ref.Step()
		if !ok {
			break
		}
		want = append(want, levels)
	}
	if len(want) != 5 {
		t.Fatalf("reference feed gave %d steps, want 5", len(want))
	}

	stream, feed := replayFeed(t, s, corpus.Bytes())
	s.AttachReplay(feed, stream.Provenance)
	initial := concurrency(s)
	held := concurrency(s)
	records := 0
	for k, levels := range want {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		for i, l := range levels {
			if l >= 0 {
				held[i] = l
			}
		}
		if got := concurrency(s); !reflect.DeepEqual(got, held) {
			t.Fatalf("step %d: concurrency %v, want %v (feed levels %v)", k, got, held, levels)
		}
		got, now := scorecardReplay(t, s), stream.Provenance()
		if !reflect.DeepEqual(got, now) {
			t.Fatalf("step %d: /scorecard replay = %+v, want the stream's provenance %+v", k, got, now)
		}
		if got.Records <= records {
			t.Fatalf("step %d: /scorecard counts %d replayed records, %d the step before", k, got.Records, records)
		}
		records = got.Records
	}
	if reflect.DeepEqual(held, initial) {
		t.Fatalf("the feed never moved a level from %v — the test is vacuous", initial)
	}
	for k := 0; k < 3; k++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if got := concurrency(s); !reflect.DeepEqual(got, held) {
			t.Fatalf("step %d after the feed ran out: concurrency %v, want the last levels %v", k, got, held)
		}
	}

	final := stream.Provenance()
	if final.Records != 6*5 || final.Distorted == 0 {
		t.Fatalf("stream provenance %+v, want 30 records and some distorted", final)
	}
	if got := scorecardReplay(t, s); !reflect.DeepEqual(got, final) {
		t.Fatalf("/scorecard replay = %+v, want the stream's final provenance %+v", got, final)
	}
	for _, d := range s.obs.Audit().Records() {
		if d.Action == "replay-failed" {
			t.Fatalf("a clean replay audited %+v", d)
		}
	}
}

// failingSource yields one record per step for steps [0, n), then fails.
type failingSource struct{ k, n int }

var errCorpus = errors.New("corpus read failed")

func (f *failingSource) Next() (trace.Record, error) {
	if f.k == f.n {
		return trace.Record{}, errCorpus
	}
	f.k++
	return trace.Record{VM: "vm", Time: float64(f.k-1) * trace.DefaultStepSeconds, Util: 0.5}, nil
}

// TestReplaySourceFailureAuditedOnce: a source that fails mid-stream
// ends the feed, and the loop records exactly one replay-failed decision
// however many steps follow.
func TestReplaySourceFailureAuditedOnce(t *testing.T) {
	s := testServer(t)
	feed, err := trace.NewFeed(&failingSource{n: 2}, trace.FeedConfig{Apps: len(s.tb.Apps)})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachReplay(feed, nil)
	for k := 0; k < 6; k++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(feed.Err(), errCorpus) {
		t.Fatalf("feed error = %v, want the source's", feed.Err())
	}
	failed := 0
	for _, d := range s.obs.Audit().Records() {
		if d.Action == "replay-failed" {
			failed++
			if d.Reason != errCorpus.Error() {
				t.Fatalf("replay-failed reason %q, want %q", d.Reason, errCorpus)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d replay-failed decisions, want exactly 1", failed)
	}
}
