package consensus

import (
	"encoding/json"
	"fmt"
	"strconv"

	"realisticfd/internal/model"
)

// Wire codec for the S-flooding payloads, used by the live runtime
// (internal/livecons) to ship the very same automaton that the
// simulator verifies over real sockets. Only SFlooding payloads are
// wire-encodable; the other algorithms are simulator-side
// demonstrations.

// wireEnvelope is the JSON frame: Kind discriminates the payload.
type wireEnvelope struct {
	Kind  string            `json:"kind"`
	Round int               `json:"round,omitempty"`
	Vals  map[string]string `json:"vals,omitempty"`
}

const (
	wireKindFlood  = "flood"
	wireKindVector = "vector"
)

// EncodeWire serializes an SFlooding payload.
func EncodeWire(payload any) ([]byte, error) {
	switch m := payload.(type) {
	case *sfFloodMsg:
		return json.Marshal(wireEnvelope{
			Kind:  wireKindFlood,
			Round: m.Round,
			Vals:  valsToWire(m.Delta),
		})
	case *sfVectorMsg:
		return json.Marshal(wireEnvelope{
			Kind: wireKindVector,
			Vals: valsToWire(m.Vector),
		})
	default:
		return nil, fmt.Errorf("consensus: payload %T is not wire-encodable", payload)
	}
}

// DecodeWire inverts EncodeWire.
func DecodeWire(b []byte) (any, error) {
	var env wireEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("consensus: bad wire payload: %w", err)
	}
	vals, err := valsFromWire(env.Vals)
	if err != nil {
		return nil, err
	}
	switch env.Kind {
	case wireKindFlood:
		return &sfFloodMsg{Round: env.Round, Delta: vals}, nil
	case wireKindVector:
		return &sfVectorMsg{Vector: vals}, nil
	default:
		return nil, fmt.Errorf("consensus: unknown wire kind %q", env.Kind)
	}
}

func valsToWire(v valueVec) map[string]string {
	out := make(map[string]string, v.keys.Len())
	v.keys.ForEach(func(p model.ProcessID) bool {
		out[strconv.Itoa(int(p))] = string(v.vals[p])
		return true
	})
	return out
}

func valsFromWire(w map[string]string) (valueVec, error) {
	var out valueVec
	// order-free: set is per key; a map with several bad keys is refused
	// whichever the error names.
	for k, val := range w {
		id, err := strconv.Atoi(k)
		if err != nil || id < 1 || id > model.MaxProcesses {
			return valueVec{}, fmt.Errorf("consensus: bad process key %q on the wire", k)
		}
		out.set(model.ProcessID(id), Value(val))
	}
	return out, nil
}

// set stores q's entry, growing vals to hold it. Only for vectors that
// own their vals (decoded ones); a sender's vector shares the process's.
func (v *valueVec) set(q model.ProcessID, val Value) {
	if int(q) >= len(v.vals) {
		v.vals = append(v.vals, make([]Value, int(q)+1-len(v.vals))...)
	}
	v.keys = v.keys.Add(q)
	v.vals[q] = val
}
