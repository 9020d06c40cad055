// Package repro is a full reproduction of "Adaptive Approaches to
// Relieving Broadcast Storms in a Wireless Multihop Mobile Ad Hoc
// Network" (Tseng, Ni, Shih; ICDCS 2001 / IEEE ToC May 2003).
//
// The library lives under internal/: a deterministic discrete-event
// simulator (sim), unit-disk radio channel (phy), IEEE 802.11-like DCF
// (mac), random-turn mobility (mobility), HELLO neighbor discovery
// (neighbor), the paper's rebroadcast schemes (scheme), the assembled
// network (manet), and the per-figure reproduction harness (experiment).
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results. cmd/figures regenerates
// every figure of the paper's evaluation; bench/ is the benchmark.
package repro
