// workloads.h - one function per benchmark workload. Each call is one
// iteration: set up (untimed), run the timed interval, check every output
// against its oracle, and on traced iterations fill the per-layer metrics.
#pragma once

#include "common.h"

namespace perfbench {

IterationResult run_discover(IterationContext& ctx);
IterationResult run_campaign(IterationContext& ctx);
IterationResult run_replay(IterationContext& ctx);

}  // namespace perfbench
