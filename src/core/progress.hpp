// Progress monitoring (the progress window of paper Fig. 7): observe a
// running campaign, and pause/stop it.
#pragma once

#include <cstdint>

#include "core/algorithms.hpp"

namespace goofi::core {

/// Prints one status line to stderr per `stride` experiments and after the
/// last one, "enabling the user to monitor the experiments, e.g. getting
/// information about the number of faults injected" (§3.3). The lines are
/// the progress window itself, not log messages, so no log level hides them.
class ConsoleProgressMonitor final : public ProgressMonitor {
 public:
  explicit ConsoleProgressMonitor(int stride = 10) : stride_(stride) {}

  bool OnExperiment(int done, int total, const LoggedState& last) override;

  /// Request the campaign to end after the current experiment ("end the
  /// campaign", Fig. 7).
  void RequestStop() { stop_requested_ = true; }

 private:
  int stride_;
  bool stop_requested_ = false;
  int detections_seen_ = 0;
};

/// Test helper: stops the campaign after `limit` experiments and records
/// every callback.
class CountingMonitor final : public ProgressMonitor {
 public:
  explicit CountingMonitor(int limit = -1) : limit_(limit) {}

  bool OnExperiment(int done, int total, const LoggedState& last) override;

  int calls() const { return calls_; }
  int last_done() const { return last_done_; }
  int last_total() const { return last_total_; }

 private:
  int limit_;
  int calls_ = 0;
  int last_done_ = 0;
  int last_total_ = 0;
};

}  // namespace goofi::core
