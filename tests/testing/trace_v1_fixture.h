#ifndef CASCACHE_TESTS_TESTING_TRACE_V1_FIXTURE_H_
#define CASCACHE_TESTS_TESTING_TRACE_V1_FIXTURE_H_

#include <string>

#include "trace/synthetic.h"

namespace cascache::testing {

/// Path of the checked-in v1 trace tests/data/trace_v1_small.cctr
/// (11,704 bytes). Nothing writes v1 any more; the file was written once
/// by the former v1 writer from GenerateWorkload(V1FixtureParams()), so
/// reading it back must reproduce that workload exactly.
inline std::string V1FixturePath() {
  return std::string(CASCACHE_TEST_DATA_DIR) + "/trace_v1_small.cctr";
}

/// The workload stored in the v1 fixture: 40 objects, 700 requests.
inline trace::WorkloadParams V1FixtureParams() {
  trace::WorkloadParams params;
  params.num_objects = 40;
  params.num_requests = 700;
  params.num_clients = 10;
  params.num_servers = 4;
  params.temporal_locality = 0.2;
  params.temporal_window = 64;
  params.temporal_mean_depth = 8.0;
  params.seed = 1999;
  return params;
}

}  // namespace cascache::testing

#endif  // CASCACHE_TESTS_TESTING_TRACE_V1_FIXTURE_H_
