package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vdcpower/internal/testbed"
)

// testTestbed builds the small testbed every serve test runs.
func testTestbed(t *testing.T) *testbed.Testbed {
	t.Helper()
	cfg := testbed.DefaultConfig()
	cfg.NumApps = 2
	cfg.NumServers = 2
	cfg.IdentPeriods = 60
	cfg.IdentWarmupSec = 20
	tb, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func testServer(t *testing.T) *Server {
	t.Helper()
	return New(testTestbed(t))
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func post(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestStatusEndpoint(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 5; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rr := get(t, s.Handler(), "/status")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Apps) != 2 {
		t.Fatalf("apps = %d", len(st.Apps))
	}
	if st.PowerW <= 0 || st.ActiveServers < 1 || st.SimTimeSec <= 0 {
		t.Fatalf("implausible status %+v", st)
	}
	for _, a := range st.Apps {
		if a.T90Sec <= 0 || len(a.Allocations) != 2 {
			t.Fatalf("implausible app %+v", a)
		}
	}
}

func TestHistoryEndpoint(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 10; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rr := get(t, s.Handler(), "/history?n=4")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var recs []testbed.PeriodRecord
	if err := json.Unmarshal(rr.Body.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	if bad := get(t, s.Handler(), "/history?n=zero"); bad.Code != http.StatusBadRequest {
		t.Fatalf("bad n accepted: %d", bad.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	rr := get(t, s.Handler(), "/metrics")
	body := rr.Body.String()
	for _, want := range []string{
		"vdcpower_power_watts",
		"vdcpower_active_servers",
		`vdcpower_response_time_seconds{app="App1"}`,
		`vdcpower_setpoint_seconds{app="App2"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestSetpointEndpoint(t *testing.T) {
	s := testServer(t)
	if rr := post(t, s.Handler(), "/setpoint?app=1&seconds=1.3"); rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body)
	}
	if got := s.tb.Controllers[1].Setpoint(); got != 1.3 {
		t.Fatalf("setpoint = %v", got)
	}
	for _, bad := range []string{
		"/setpoint?app=9&seconds=1",
		"/setpoint?app=0&seconds=0",
		"/setpoint?app=x&seconds=1",
		"/setpoint?app=0&seconds=NaN",
		"/setpoint?app=0&seconds=Inf",
		"/setpoint?app=0&seconds=-Inf",
		"/setpoint?app=0&seconds=1e308",
		"/setpoint?app=0&seconds=3600.001",
	} {
		if rr := post(t, s.Handler(), bad); rr.Code != http.StatusBadRequest {
			t.Fatalf("%s accepted: %d", bad, rr.Code)
		}
	}
	if got := s.tb.Controllers[0].Setpoint(); got != 1 {
		t.Fatalf("rejected requests moved app 0's setpoint to %v", got)
	}
	// The loop still steps with finite demands.
	for k := 0; k < 3; k++ {
		if err := s.Step(); err != nil {
			t.Fatalf("step %d after rejected setpoints: %v", k, err)
		}
	}
	for i, ctl := range s.tb.Controllers {
		for j, d := range ctl.Demands() {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("app %d tier %d demand %v after rejected setpoints", i, j, d)
			}
		}
	}
	// GET must be rejected.
	if rr := get(t, s.Handler(), "/setpoint?app=0&seconds=1"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET setpoint: %d", rr.Code)
	}
}

func TestConcurrencyEndpoint(t *testing.T) {
	s := testServer(t)
	if rr := post(t, s.Handler(), "/concurrency?app=0&level=80"); rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if got := s.tb.Apps[0].Concurrency(); got != 80 {
		t.Fatalf("concurrency = %d", got)
	}
	for _, bad := range []string{
		"/concurrency?app=0&level=-1",
		"/concurrency?app=0&level=10001",
	} {
		if rr := post(t, s.Handler(), bad); rr.Code != http.StatusBadRequest {
			t.Fatalf("%s accepted: %d", bad, rr.Code)
		}
	}
	if got := s.tb.Apps[0].Concurrency(); got != 80 {
		t.Fatalf("rejected requests moved app 0's concurrency to %d", got)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	s := testServer(t)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	rr := get(t, s.Handler(), "/snapshot")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var snap struct {
		Servers []struct {
			ID  string `json:"id"`
			VMs []struct {
				ID string `json:"id"`
			} `json:"vms"`
		} `json:"servers"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Servers) != 2 {
		t.Fatalf("servers = %d", len(snap.Servers))
	}
	vms := 0
	for _, srv := range snap.Servers {
		vms += len(srv.VMs)
	}
	if vms != 4 { // 2 apps × 2 tiers
		t.Fatalf("VMs = %d", vms)
	}
	if rr := post(t, s.Handler(), "/snapshot"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /snapshot: %d", rr.Code)
	}
}

func TestMethodGuards(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	if rr := post(t, h, "/status"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /status: %d", rr.Code)
	}
	if rr := post(t, h, "/metrics"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d", rr.Code)
	}
	if rr := post(t, h, "/history"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /history: %d", rr.Code)
	}
}

func TestCordonEndpoint(t *testing.T) {
	s := testServer(t)
	id := s.tb.DC.Servers[0].ID
	if rr := post(t, s.Handler(), "/cordon?server="+id+"&state=on"); rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body)
	}
	if !s.tb.DC.Servers[0].Cordoned() {
		t.Fatal("cordon not applied")
	}
	if rr := post(t, s.Handler(), "/cordon?server="+id+"&state=off"); rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if s.tb.DC.Servers[0].Cordoned() {
		t.Fatal("uncordon not applied")
	}
	for _, bad := range []string{
		"/cordon?server=" + id + "&state=maybe",
		"/cordon?server=nope&state=on",
	} {
		if rr := post(t, s.Handler(), bad); rr.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d", bad, rr.Code)
		}
	}
	if rr := get(t, s.Handler(), "/cordon?server="+id+"&state=on"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET cordon: %d", rr.Code)
	}
}

func TestDashboardServed(t *testing.T) {
	s := testServer(t)
	rr := get(t, s.Handler(), "/")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{"vdcpower", "/status", "/history", "canvas"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	if rr := get(t, s.Handler(), "/nonsense"); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown path: %d", rr.Code)
	}
}

func TestBackgroundLoop(t *testing.T) {
	s := testServer(t)
	s.Start(time.Millisecond)
	s.Start(time.Millisecond) // idempotent
	deadline := time.After(2 * time.Second)
	for {
		s.mu.Lock()
		n := s.history.len()
		s.mu.Unlock()
		if n >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background loop made no progress")
		case <-time.After(5 * time.Millisecond):
		}
	}
	s.Stop()
	s.mu.Lock()
	n := s.history.len()
	s.mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	s.mu.Lock()
	after := s.history.len()
	s.mu.Unlock()
	if after != n {
		t.Fatal("loop kept running after Stop")
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	s := testServer(t)
	s.Start(time.Millisecond)
	defer s.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h := s.Handler()
		for i := 0; i < 50; i++ {
			get(t, h, "/status")
			get(t, h, "/metrics")
			post(t, h, "/setpoint?app=0&seconds=1.1")
		}
	}()
	<-done
}
