package trb

import (
	"fmt"

	"realisticfd/internal/consensus"
	"realisticfd/internal/model"
	"realisticfd/internal/sim"
)

// Delivery is one located TRB delivery.
type Delivery struct {
	Initiator model.ProcessID
	Seq       int
	By        model.ProcessID
	At        model.Time
	Value     consensus.Value
}

// IsNil reports whether the delivery is the nil value for a crashed
// initiator.
func (d Delivery) IsNil() bool { return d.Value == Nil }

// Deliveries extracts every TRB delivery from a trace, keyed by
// instance then deliverer.
func Deliveries(tr *sim.Trace) map[int]map[model.ProcessID]Delivery {
	out := map[int]map[model.ProcessID]Delivery{}
	for _, x := range indexDeliveries(tr).at {
		if id := InstanceID(x.Initiator, x.Seq); x.By != 0 {
			if out[id] == nil {
				out[id] = map[model.ProcessID]Delivery{}
			}
			out[id][x.By] = x
		}
	}
	return out
}

// deliveries indexes a trace's TRB deliveries once for every check, in
// instance order (by initiator, then wave): the first delivery of
// instance (i, k) by p is at[((i−1)·waves+k)·n+p−1], and its By is 0
// where p delivered nothing.
type deliveries struct {
	n, waves int
	at       []Delivery
}

func indexDeliveries(tr *sim.Trace) deliveries {
	d := deliveries{n: tr.N}
	evs := tr.ProtocolEvents(sim.KindDeliver)
	for _, le := range evs {
		if _, ok := le.Event.Value.(consensus.Value); ok {
			_, seq := SplitInstanceID(le.Event.Instance)
			d.waves = max(d.waves, seq+1)
		}
	}
	d.at = make([]Delivery, d.n*d.waves*d.n)
	for _, le := range evs {
		v, ok := le.Event.Value.(consensus.Value)
		init, seq := SplitInstanceID(le.Event.Instance)
		if !ok || init < 1 || int(init) > d.n || le.P < 1 || int(le.P) > d.n {
			continue
		}
		if x := &d.instance(init, seq)[le.P-1]; x.By == 0 {
			*x = Delivery{Initiator: init, Seq: seq, By: le.P, At: le.T, Value: v}
		}
	}
	return d
}

// instance returns the deliveries of instance (init, k) by process,
// p1 first; nil for a wave nobody delivered.
func (d deliveries) instance(init model.ProcessID, k int) []Delivery {
	if k >= d.waves {
		return nil
	}
	i := ((int(init)-1)*d.waves + k) * d.n
	return d.at[i : i+d.n]
}

// AllDelivered returns a per-run stop predicate: every correct
// process has delivered every instance of every wave. It consumes the
// trace's indexed deliver events incrementally — the closure keeps an
// offset into the (append-only) slice served by
// Trace.ProtocolEvents(KindDeliver) and a count of still-missing
// (instance, deliverer) pairs, so each of the per-step evaluations
// costs only the events that arrived since the last one. Use with
// crash scripts fixed up front: the correct set is sampled once, on
// the first evaluation.
//
// The returned predicate is stateful and single-use — construct a
// fresh one for every run (unlike the stateless sim.AllDecided and
// sim.CorrectDecided, reusing this one across runs would carry the
// first run's progress into the second and stop it immediately).
func AllDelivered(waves int) func(*sim.Trace) bool {
	var (
		inited   bool
		seen     int
		missing  int
		correct  model.ProcessSet
		required map[int]bool
		got      map[int]model.ProcessSet
	)
	return func(tr *sim.Trace) bool {
		if !inited {
			inited = true
			correct = tr.Pattern.Correct()
			required = make(map[int]bool, tr.N*waves)
			got = make(map[int]model.ProcessSet, tr.N*waves)
			for init := 1; init <= tr.N; init++ {
				for k := 0; k < waves; k++ {
					required[InstanceID(model.ProcessID(init), k)] = true
				}
			}
			missing = tr.N * waves * correct.Len()
		}
		dels := tr.ProtocolEvents(sim.KindDeliver)
		for ; seen < len(dels); seen++ {
			le := dels[seen]
			if _, ok := le.Event.Value.(consensus.Value); !ok {
				continue
			}
			id := le.Event.Instance
			if !required[id] || !correct.Has(le.P) || got[id].Has(le.P) {
				continue
			}
			got[id] = got[id].Add(le.P)
			missing--
		}
		return missing == 0
	}
}

// CheckAgreement verifies that for every instance, all deliverers
// delivered the same value (property 2 of §5). Like every check here,
// it names the first violation in instance order.
func CheckAgreement(tr *sim.Trace) error { return indexDeliveries(tr).agreement() }

func (d deliveries) agreement() error {
	for i := 0; i < len(d.at); i += d.n {
		var ref Delivery
		for _, x := range d.at[i : i+d.n] {
			switch {
			case x.By == 0:
			case ref.By == 0:
				ref = x
			case x.Value != ref.Value:
				return fmt.Errorf("trb agreement violated for (%v,%d): %v delivered %q, %v delivered %q",
					x.Initiator, x.Seq, ref.By, ref.Value, x.By, x.Value)
			}
		}
	}
	return nil
}

// CheckTermination verifies every correct process delivered every
// instance of every wave.
func CheckTermination(tr *sim.Trace, waves int) error {
	return indexDeliveries(tr).termination(tr.Pattern.Correct(), waves)
}

func (d deliveries) termination(correct model.ProcessSet, waves int) error {
	for init := model.ProcessID(1); int(init) <= d.n; init++ {
		for k := 0; k < waves; k++ {
			dels := d.instance(init, k)
			for _, p := range correct.Slice() {
				if dels == nil || dels[p-1].By == 0 {
					return fmt.Errorf("trb termination violated: correct %v never delivered (%v,%d)", p, init, k)
				}
			}
		}
	}
	return nil
}

// CheckValidity verifies property 1 of §5: a correct initiator's
// instances deliver its actual message, never nil.
func CheckValidity(tr *sim.Trace, waves int, script func(model.ProcessID, int) consensus.Value) error {
	return indexDeliveries(tr).validity(tr.Pattern.Correct(), waves, script)
}

func (d deliveries) validity(correct model.ProcessSet, waves int, script func(model.ProcessID, int) consensus.Value) error {
	if script == nil {
		script = DefaultScript
	}
	for _, init := range correct.Slice() {
		for k := 0; k < waves; k++ {
			want := script(init, k)
			for _, x := range d.instance(init, k) {
				if x.By != 0 && x.Value != want {
					return fmt.Errorf("trb validity violated: (%v,%d) delivered %q at %v, want %q",
						init, k, x.Value, x.By, want)
				}
			}
		}
	}
	return nil
}

// CheckIntegrity verifies property 3 of §5 in the crash-stop setting:
// every delivered non-nil value is exactly what the instance's
// initiator broadcast.
func CheckIntegrity(tr *sim.Trace, script func(model.ProcessID, int) consensus.Value) error {
	return indexDeliveries(tr).integrity(script)
}

func (d deliveries) integrity(script func(model.ProcessID, int) consensus.Value) error {
	if script == nil {
		script = DefaultScript
	}
	for i := 0; i < len(d.at); i += d.n {
		init, k := model.ProcessID(i/d.n/d.waves+1), i/d.n%d.waves
		want := script(init, k)
		for _, x := range d.at[i : i+d.n] {
			if x.By != 0 && !x.IsNil() && x.Value != want {
				return fmt.Errorf("trb integrity violated: (%v,%d) delivered %q at %v, initiator broadcast %q",
					init, k, x.Value, x.By, want)
			}
		}
	}
	return nil
}

// CheckNilAccuracy verifies the realistic reading of Proposition 5.1's
// necessary direction: whenever nil is delivered for an instance of
// p_i at time t, p_i has crashed by t. This is exactly the step of
// the proof that requires D to be realistic.
func CheckNilAccuracy(tr *sim.Trace) error { return indexDeliveries(tr).nilAccuracy(tr.Pattern) }

func (d deliveries) nilAccuracy(pattern *model.FailurePattern) error {
	for _, x := range d.at {
		if x.By != 0 && x.IsNil() && pattern.Alive(x.Initiator, x.At) {
			return fmt.Errorf("trb nil-accuracy violated: %v delivered nil for (%v,%d) at t=%d while %v was alive",
				x.By, x.Initiator, x.Seq, x.At, x.Initiator)
		}
	}
	return nil
}

// CheckAll runs every TRB property on one index of the deliveries.
func CheckAll(tr *sim.Trace, waves int, script func(model.ProcessID, int) consensus.Value) error {
	d, correct := indexDeliveries(tr), tr.Pattern.Correct()
	for _, err := range []error{
		d.termination(correct, waves), d.agreement(), d.validity(correct, waves, script),
		d.integrity(script), d.nilAccuracy(tr.Pattern),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}
