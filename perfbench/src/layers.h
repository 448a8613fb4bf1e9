// The traced run: the workload's ops replayed as calls into each layer's
// public functions, with a span around every call.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

/// Replays whole passes of `workload` (script cycles for serve_replay),
/// at least one and more while `seconds` have not elapsed, both end to
/// end and decomposed into layer calls; checks that each decomposition
/// gives the end-to-end answer; writes every span as JSONL to
/// `trace_path`; and returns every per-layer metric. A metric of a layer
/// the workload never reaches is 0 and marked not reached.
RunResult RunTraced(const std::string& workload, std::uint64_t seed,
                    double seconds, const std::string& data_dir,
                    const std::string& trace_path);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
