// Factories for the literature-comparison schemes (internal to src/sim):
// the CARMA sealed-bid way auction and the LFOC fairness-clustering policy.
// Dispatched from make_scheme() in schemes.cpp.
#pragma once

#include <memory>

#include "sim/scheme.hpp"

namespace delta::sim {

std::unique_ptr<Scheme> make_carma_scheme();
std::unique_ptr<Scheme> make_lfoc_scheme();

}  // namespace delta::sim
