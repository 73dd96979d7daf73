package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"vdcpower/internal/testbed"
)

// TestHistoryRingWrapsUnderReads: with a ring of 8 records, 40 steps
// wrap it five times while another goroutine reads /history?n=8 and
// /status (run it under -race). Every read sees at most 8 whole records,
// and afterwards /history holds the last 8 records of an unobserved
// testbed stepped one period at a time at the same seed, bit for bit.
func TestHistoryRingWrapsUnderReads(t *testing.T) {
	const ring, steps = 8, 40
	s := testServer(t)
	s.history.max = ring
	h := s.Handler()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var recs []testbed.PeriodRecord
			if err := json.Unmarshal(get(t, h, "/history?n=8").Body.Bytes(), &recs); err != nil {
				t.Error(err)
				return
			}
			for _, rec := range recs {
				if len(rec.T90) != 2 {
					t.Errorf("a record read mid-run has %d T90 entries, want 2", len(rec.T90))
					return
				}
			}
			if len(recs) > ring {
				t.Errorf("/history?n=8 returned %d records from a ring of %d", len(recs), ring)
				return
			}
			if rr := get(t, h, "/status"); rr.Code != http.StatusOK {
				t.Errorf("/status: %d", rr.Code)
				return
			}
		}
	}()
	for k := 0; k < steps; k++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	tb := testTestbed(t)
	var want []testbed.PeriodRecord
	for k := 0; k < steps; k++ {
		recs, err := tb.Run(tb.Cfg.Period, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := recs[0]
		rec.T90 = append([]float64(nil), rec.T90...) // Run's records are views
		want = append(want, rec)
	}
	var got []testbed.PeriodRecord
	if err := json.Unmarshal(get(t, h, "/history?n=100").Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[steps-ring:]) {
		t.Fatalf("/history after %d steps through a ring of %d:\n%+v\nwant the unobserved run's last %d:\n%+v", steps, ring, got, ring, want[steps-ring:])
	}
}
