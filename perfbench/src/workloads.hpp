// The benchmark's workloads. Each runs rounds of fixed work for the time
// budget in `args` and returns them for report().
#pragma once

#include <vector>

#include "harness.hpp"

namespace perfbench {

std::vector<RoundResult> run_serve_hot(const Args& args);
std::vector<RoundResult> run_append_scan(const Args& args);
std::vector<RoundResult> run_zone_rw(const Args& args);

}  // namespace perfbench
