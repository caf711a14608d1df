// Package ctrl is the live routing control plane: the paper's controlled
// alternate-routing scheme serving real admission decisions instead of
// simulated ones. An Engine applies admit/release requests against a live
// sim.State through sim.Admission, the compiled admission kernel the
// simulator's fast path decides with (so replayed request traces decide
// bit-identically to an offline sim.Run); a Server
// serializes concurrent clients onto one decision loop with micro-batched
// draining, feeds observed set-ups into the EWMA Λ̂ estimator, re-derives
// protection levels at estimate epochs (core.AdaptiveScheme generalized
// from failure epochs), and reacts to link-down/up notifications by
// recompiling thresholds exactly as the simulation engines do.
//
// The package is deterministic by construction: it never reads a wall
// clock (timestamps are injected — requests carry them, or cmd/altd's
// Clock maps wall time to model time), and its only goroutine is the
// single decision loop, joined on shutdown after draining every enqueued
// decision.
package ctrl
