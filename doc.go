// Package realisticfd is a full reproduction, as a Go library, of
// C. Delporte-Gallet, H. Fauconnier and R. Guerraoui, "A Realistic
// Look At Failure Detectors" (DSN 2002).
//
// The paper proves that with no bound on the number of crash failures,
// the Perfect failure-detector class P is the weakest *realistic*
// class (one that cannot guess the future) solving uniform consensus,
// atomic broadcast and terminating reliable broadcast — collapsing the
// Chandra-Toueg hierarchy and explaining why real systems build on
// group membership services that emulate P.
//
// The implementation lives under internal/:
//
//   - model: failure patterns, histories, the realism predicate (§2–3)
//   - fd: oracle detectors P, S, ◇S, ◇P, Scribe, Marabout, P< and
//     class-property checkers
//   - sim: the FLP+FD step simulator (§2.3–2.4) with causal-chain
//     analysis, adversarial scheduling and composable link faults
//     (drops, delays, healing partitions)
//   - harness: the parallel scenario-sweep engine (deterministic
//     worker pool; parallel output byte-identical to sequential)
//   - consensus, abcast, trb: the agreement algorithms
//   - core: totality audit, the T(D⇒P) reduction, the Lemma 4.1
//     adversary, TRB⇒P, the §6.3 collapse witness
//   - transport, heartbeat, qos, membership: the live substrate —
//     gossip heartbeats over sockets, QoS metrics, exclusion-based
//     membership
//   - scenario, cluster: one fdspec/v3 scenario format for both
//     backends, and the live-cluster orchestrator, which runs the busy
//     protocol only
//   - experiments: the E1–E9 tables (see DESIGN.md and EXPERIMENTS.md)
//
// Entry points: cmd/fdsim (run, sweep, validate), cmd/experiments, cmd/fdorch
// (`fdorch -inproc` for an in-process live cluster), and the runnable
// walkthroughs under examples/.
package realisticfd
