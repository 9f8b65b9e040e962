#include "core/progress.hpp"

#include <cstdio>

namespace goofi::core {

bool ConsoleProgressMonitor::OnExperiment(int done, int total,
                                          const LoggedState& last) {
  if (last.detected) ++detections_seen_;
  if (stride_ > 0 && (done % stride_ == 0 || done == total)) {
    std::fprintf(stderr, "experiments %d/%d (%.0f%%), detections so far: %d\n",
                 done, total, total == 0 ? 0.0 : 100.0 * done / total,
                 detections_seen_);
  }
  return !stop_requested_;
}

bool CountingMonitor::OnExperiment(int done, int total, const LoggedState&) {
  ++calls_;
  last_done_ = done;
  last_total_ = total;
  return limit_ < 0 || calls_ < limit_;
}

}  // namespace goofi::core
