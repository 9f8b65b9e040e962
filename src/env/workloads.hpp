// Built-in target workloads.
//
// The paper's campaigns run a user-chosen workload on the target: either a
// program "that terminates by itself or is executed as an infinite loop"
// exchanging data with an environment simulator each iteration (§3.2).
// This library provides both kinds as TRD32 assembly sources, together with
// the metadata GOOFI needs: where results live, where the environment I/O
// words are, and which label marks a loop-iteration boundary.
#pragma once

#include <string>
#include <vector>

#include "util/status.hpp"

namespace goofi::env {

struct WorkloadSpec {
  std::string name;
  std::string description;
  std::string source;  ///< TRD32 assembly

  /// Batch workloads: symbol + word count of the final results compared
  /// against the reference run to detect escaped (value-failure) errors.
  std::string result_symbol;
  uint32_t result_words = 0;

  /// Control workloads: run as an infinite loop.
  bool infinite_loop = false;
  std::string iteration_symbol;  ///< label executed once per loop iteration
  /// Env sensor words (written by the host), followed directly by the
  /// actuator words (read by the host).
  std::string input_symbol;
  uint32_t input_words = 0;
  uint32_t output_words = 0;
  std::string environment;       ///< environment simulator name, if any
};

/// Names of all built-in workloads.
std::vector<std::string> WorkloadNames();

/// Looks up a built-in workload by name.
util::Result<WorkloadSpec> GetWorkload(const std::string& name);

// Batch workloads (terminate with HALT):
//   "bubblesort"  - sorts 16 words, stores checksum
//   "matmul"      - 3x3 integer matrix product + checksum
//   "fibonacci"   - 24 iterations, stores fib(24)
//   "checksum"    - rotate-xor checksum over a 32-word block
//   "strsearch"   - naive multi-word substring search
//   "queue"       - stack push/pop through a call chain (sp/lr faults)
//   "sparse_table"- sums 12 of 64 table words; the never-read tail and the
//                   untouched upper registers demonstrate static pruning
// Control workloads (infinite loop + environment):
//   "pendulum_pd"         - PD controller for the inverted pendulum
//   "pendulum_pd_assert"  - same, with executable assertions that clamp the
//                           actuator command (best-effort recovery, ref [12])
//   "pendulum_pd_trap"    - assertions signal via TRAP (fail-stop) instead
//   "cruise_pi"           - PI controller for the cruise-control plant

}  // namespace goofi::env
