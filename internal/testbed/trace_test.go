package testbed

import (
	"bytes"
	"encoding/json"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
	"vdcpower/internal/telemetry"
)

// chromeEvent mirrors the fields of one Chrome-trace event the
// assertions need.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestIntegratedTraceCoversBothLevels runs the full two-level system with
// the span recorder attached and asserts the exported Chrome trace holds
// every layer's span kinds: MPC solves, arbitrator passes, the Minimum
// Slack branch-and-bound (with its explored node count), IPAC rounds, and
// live migrations.
func TestIntegratedTraceCoversBothLevels(t *testing.T) {
	cfg := quickConfig()
	cfg.NumApps = 4
	cfg.NumServers = 3
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 10, cluster.DefaultMigrationModel()); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := tb.AttachTelemetry(0)
	tb.AttachProbe(probe.New(probe.Metrics(reg)))
	if _, err := tb.Run(200, nil); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	byName := map[string]int{}
	for _, e := range evs {
		byName[e.Name]++
	}
	for _, want := range []string{
		"testbed.period", "core.step", "core.measure", "core.actuate",
		"mpc.solve", "mpc.model_update", "mpc.qp",
		"arbitrator.pass",
		"ipac.consolidate", "ipac.round", "optimizer.pac", "packing.minslack",
		"cluster.migrate",
	} {
		if byName[want] == 0 {
			t.Errorf("trace lacks %q spans (have %v)", want, byName)
		}
	}
	for _, e := range evs {
		if e.Name == "packing.minslack" {
			if _, ok := e.Args["nodes"]; !ok {
				t.Errorf("packing.minslack span lacks the nodes attribute: %v", e.Args)
			}
		}
	}

	// The registry saw both levels too: application-level control
	// counters and histograms plus data-center-level optimizer counters.
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{
		"vdcpower_control_periods_total",
		"vdcpower_optimizer_passes_total{policy=\"IPAC\"}",
		"vdcpower_migrations_total",
		"vdcpower_bnb_nodes_total",
		"vdcpower_t90_seconds_bucket",
	} {
		if !bytes.Contains(prom.Bytes(), []byte(m)) {
			t.Errorf("exposition lacks %s:\n%s", m, prom.String())
		}
	}
}
