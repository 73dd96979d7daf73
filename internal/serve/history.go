package serve

import "vdcpower/internal/testbed"

// historyRing keeps the newest max period records a server has stepped.
// testbed.Run lends its records only until its next call, so push copies
// each one in. The records' T90 rows share one backing store, which
// grows as append grows it until the ring holds max records; from then
// on every push overwrites the oldest record and row in place, so a
// warmed step allocates nothing here. Not safe for concurrent use;
// Server holds s.mu.
type historyRing struct {
	max  int
	recs []testbed.PeriodRecord // oldest first until full; from head on after
	rows []float64              // the T90 rows, len(recs) × apps
	head int                    // the oldest record once len(recs) == max
}

// len returns the number of records held.
func (h *historyRing) len() int { return len(h.recs) }

// at returns the i-th oldest record held.
func (h *historyRing) at(i int) *testbed.PeriodRecord {
	return &h.recs[(h.head+i)%len(h.recs)]
}

// push copies rec into the ring, over the oldest record once it is full.
func (h *historyRing) push(rec testbed.PeriodRecord) {
	if len(h.recs) == h.max {
		slot := &h.recs[h.head]
		row := slot.T90
		copy(row, rec.T90)
		*slot = rec
		slot.T90 = row
		h.head = (h.head + 1) % h.max
		return
	}
	n := len(rec.T90)
	rows := append(h.rows, rec.T90...)
	if cap(rows) != cap(h.rows) {
		// append moved the backing store: move every row held onto it.
		for i := range h.recs {
			h.recs[i].T90 = rows[i*n : (i+1)*n : (i+1)*n]
		}
	}
	h.rows = rows
	rec.T90 = rows[len(rows)-n : len(rows) : len(rows)]
	h.recs = append(h.recs, rec)
}

// last copies the newest n records held (all of them when fewer), oldest
// first, into storage of their own.
func (h *historyRing) last(n int) []testbed.PeriodRecord {
	n = min(n, len(h.recs))
	out := make([]testbed.PeriodRecord, n)
	if n == 0 {
		return out
	}
	apps := len(h.at(0).T90)
	rows := make([]float64, n*apps)
	for i := range out {
		rec := h.at(len(h.recs) - n + i)
		row := rows[i*apps : (i+1)*apps : (i+1)*apps]
		copy(row, rec.T90)
		out[i] = *rec
		out[i].T90 = row
	}
	return out
}
