package sysid

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestModelJSONRoundTrip(t *testing.T) {
	m := refModel()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back := &Model{}
	if err := json.NewDecoder(&buf).Decode(back); err != nil {
		t.Fatal(err)
	}
	if back.Na != m.Na || back.Nb != m.Nb || back.NumInputs != m.NumInputs {
		t.Fatalf("orders changed: %+v", back)
	}
	if back.A[0] != m.A[0] || back.Gamma != m.Gamma {
		t.Fatalf("parameters changed: %+v", back)
	}
	for j := range m.B {
		for i := range m.B[j] {
			if back.B[j][i] != m.B[j][i] {
				t.Fatalf("B[%d][%d] changed", j, i)
			}
		}
	}
}

func TestModelJSONValidates(t *testing.T) {
	// Structurally valid JSON but inconsistent orders must be rejected.
	bad := `{"na":2,"nb":2,"num_inputs":2,"a":[0.5],"b":[[-1,-1],[-0.1,-0.1]],"gamma":1}`
	if err := json.Unmarshal([]byte(bad), &Model{}); err == nil {
		t.Fatal("inconsistent model accepted")
	}
	if err := json.Unmarshal([]byte("{broken"), &Model{}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestModelJSONIsStableFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := refModel().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"na"`, `"nb"`, `"num_inputs"`, `"a"`, `"b"`, `"gamma"`} {
		if !strings.Contains(buf.String(), key) {
			t.Fatalf("wire format missing %s:\n%s", key, buf.String())
		}
	}
}
