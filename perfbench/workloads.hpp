#pragma once
// The four benchmark workloads. Each fills `r` with its end-to-end metrics
// (untraced pass) and, when args.trace is set, its per-layer metrics from a
// second, traced pass over the same seeded op sequence plus layer probes.

#include "common.hpp"

namespace perfbench {

void run_bem_gmres(const Args& args, Result& r);
void run_shell_replay(const Args& args, Result& r);
void run_cloud_oneshot(const Args& args, Result& r);
void run_service_mix(const Args& args, Result& r);

}  // namespace perfbench
