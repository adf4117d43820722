// Copyright 2026 The siot-trust Authors.
// The GraphBuilder-based Barabási–Albert and G(n, p) generators, kept as a
// test oracle.
//
// Production's graph::BarabasiAlbert and graph::ErdosRenyiGnp check each
// draw for duplicates locally and build the CSR straight from an edge
// list. These are the older shape of the same generators: every edge goes
// through a hash-set GraphBuilder. They make the same random draws in the
// same order, so for every (n, m or p, seed) production must return the
// same graph and leave the Rng in the same state.

#ifndef SIOT_TESTS_SUPPORT_REFERENCE_GENERATORS_H_
#define SIOT_TESTS_SUPPORT_REFERENCE_GENERATORS_H_

#include <cstddef>

#include "common/rng.h"
#include "graph/graph.h"

namespace siot::graph {

/// G(n, p) through GraphBuilder.
Graph ReferenceErdosRenyiGnp(std::size_t n, double p, Rng& rng);

/// Barabási–Albert preferential attachment through GraphBuilder.
Graph ReferenceBarabasiAlbert(std::size_t n, std::size_t m, Rng& rng);

}  // namespace siot::graph

#endif  // SIOT_TESTS_SUPPORT_REFERENCE_GENERATORS_H_
