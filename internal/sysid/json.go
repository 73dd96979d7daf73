package sysid

import (
	"encoding/json"
	"fmt"
	"io"
)

// Models identified offline are deployed to controllers at run time; the
// JSON form is the hand-off artifact (cmd/sysident writes it, operators
// check it into config management).

// modelJSON is the serialized layout, kept separate from Model so the
// wire format is explicit and stable.
type modelJSON struct {
	Na        int         `json:"na"`
	Nb        int         `json:"nb"`
	NumInputs int         `json:"num_inputs"`
	A         []float64   `json:"a"`
	B         [][]float64 `json:"b"`
	Gamma     float64     `json:"gamma"`
}

// MarshalJSON implements json.Marshaler.
func (m *Model) MarshalJSON() ([]byte, error) {
	mj := modelJSON{Na: m.Na, Nb: m.Nb, NumInputs: m.NumInputs, A: m.A, Gamma: m.Gamma}
	for _, b := range m.B {
		mj.B = append(mj.B, b)
	}
	return json.Marshal(mj)
}

// UnmarshalJSON implements json.Unmarshaler and validates the result.
func (m *Model) UnmarshalJSON(data []byte) error {
	var mj modelJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return fmt.Errorf("sysid: decoding model: %w", err)
	}
	m.Na, m.Nb, m.NumInputs = mj.Na, mj.Nb, mj.NumInputs
	m.A, m.Gamma = mj.A, mj.Gamma
	m.B = nil
	for _, b := range mj.B {
		m.B = append(m.B, b)
	}
	return m.Validate()
}

// WriteJSON writes the model as indented JSON.
func (m *Model) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
