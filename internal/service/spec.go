// Package service turns the simulator into a multi-tenant
// simulation-as-a-service backend: a RunSpec names a run as a pure value
// (experiment, benchmark, governor, tuning, cores, seed …), a bounded job
// queue executes specs on a persistent worker fleet, identical in-flight
// specs coalesce onto one execution, and finished reports live in an LRU
// content-addressed cache keyed by the spec's canonical hash.
//
// The cache is sound because of two properties the engine layers below
// guarantee: simulations are bit-deterministic functions of their spec
// (the engine determinism tests), and reports encode canonically
// (RunReport.Encode sorts map keys). A cached response is therefore
// byte-identical to what a fresh execution of the same spec would produce
// — see DESIGN.md, "Why determinism makes the result cache sound".
package service

import "repro/internal/experiments"

// RunSpec is one simulation request as a value: the hashed run identity
// the experiment harnesses execute (experiments.Spec).
type RunSpec = experiments.Spec

// ErrInvalidSpec tags validation failures so the HTTP layer can map them
// to 400 responses; the wrapped message names the offending field.
var ErrInvalidSpec = experiments.ErrInvalidSpec
