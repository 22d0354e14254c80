package abcast

import (
	"fmt"

	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// Sequences extracts each process's delivery sequence, in trace
// order.
func Sequences(tr *sim.Trace) map[model.ProcessID][]Delivery {
	out := map[model.ProcessID][]Delivery{}
	for _, le := range tr.ProtocolEvents(sim.KindDeliver) {
		d, ok := le.Event.Value.(Delivery)
		if !ok {
			continue
		}
		out[le.P] = append(out[le.P], d)
	}
	return out
}

// CheckTotalOrder verifies uniform total order: any two delivery
// sequences (including those of processes that later crash) are
// prefix-comparable.
func CheckTotalOrder(tr *sim.Trace) error {
	seqs := Sequences(tr)
	for p := model.ProcessID(1); int(p) <= tr.N; p++ {
		for q := p + 1; int(q) <= tr.N; q++ {
			a, b := seqs[p], seqs[q]
			limit := len(a)
			if len(b) < limit {
				limit = len(b)
			}
			for i := 0; i < limit; i++ {
				if a[i].ID != b[i].ID {
					return fmt.Errorf("total order violated at position %d: %v delivered %v, %v delivered %v",
						i, p, a[i].ID, q, b[i].ID)
				}
			}
		}
	}
	return nil
}

// CheckAgreement verifies that all correct processes delivered the
// same multiset (with total order: the same sequence).
func CheckAgreement(tr *sim.Trace) error {
	seqs := Sequences(tr)
	correct := tr.Pattern.Correct().Slice()
	if len(correct) == 0 {
		return nil
	}
	ref := seqs[correct[0]]
	for _, p := range correct[1:] {
		got := seqs[p]
		if len(got) != len(ref) {
			return fmt.Errorf("agreement violated: %v delivered %d messages, %v delivered %d",
				correct[0], len(ref), p, len(got))
		}
		for i := range ref {
			if ref[i].ID != got[i].ID {
				return fmt.Errorf("agreement violated at position %d: %v vs %v", i, ref[i].ID, got[i].ID)
			}
		}
	}
	return nil
}

// CheckValidity verifies that every message abcast by a correct
// process is delivered by every correct process.
func CheckValidity(tr *sim.Trace, script map[model.ProcessID][]string) error {
	seqs := Sequences(tr)
	correct := tr.Pattern.Correct()
	for _, sender := range correct.Slice() {
		for i := range script[sender] {
			want := MsgID{Sender: sender, Seq: i}
			for _, p := range correct.Slice() {
				found := false
				for _, d := range seqs[p] {
					if d.ID == want {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("validity violated: %v from correct sender never delivered at %v", want, p)
				}
			}
		}
	}
	return nil
}

// CheckIntegrity verifies no duplicates and no spurious messages:
// every delivery corresponds to a scripted broadcast and happens at
// most once per process, with the right body. Processes are checked in
// ID order, so a violation names the lowest violating process.
func CheckIntegrity(tr *sim.Trace, script map[model.ProcessID][]string) error {
	seqs := Sequences(tr)
	for p := model.ProcessID(1); int(p) <= tr.N; p++ {
		seen := map[MsgID]bool{}
		for _, d := range seqs[p] {
			if seen[d.ID] {
				return fmt.Errorf("integrity violated: %v delivered %v twice", p, d.ID)
			}
			seen[d.ID] = true
			bodies := script[d.ID.Sender]
			if d.ID.Seq < 0 || d.ID.Seq >= len(bodies) {
				return fmt.Errorf("integrity violated: %v delivered unknown message %v", p, d.ID)
			}
			if bodies[d.ID.Seq] != d.Body {
				return fmt.Errorf("integrity violated: %v delivered %v with body %q, broadcast %q",
					p, d.ID, d.Body, bodies[d.ID.Seq])
			}
		}
	}
	return nil
}

// CheckAll runs every atomic-broadcast property.
func CheckAll(tr *sim.Trace, script map[model.ProcessID][]string) error {
	if err := CheckTotalOrder(tr); err != nil {
		return err
	}
	if err := CheckAgreement(tr); err != nil {
		return err
	}
	if err := CheckValidity(tr, script); err != nil {
		return err
	}
	return CheckIntegrity(tr, script)
}
