// In-memory span recorder for the traced benchmark run.
//
// Spans carry a name, a lane (one per thread, in order of first use), start
// and end on the steady clock, and the id of the span that was open on the
// same lane when they began. They stay in memory until the run ends and are
// written as Chrome trace-event JSON (viewable offline in Perfetto).
//
// High-frequency calls (test-card operations, WAL callbacks) are also
// folded into per-lane, per-layer totals, which are what the per-layer
// metrics are computed from; each lane keeps only its first
// `max_spans_per_lane` spans so the trace file stays loadable. Recording
// touches only the calling thread's lane: no shared atomics on the hot path.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Layers timed at the test-card and database seams.
enum class Layer : int {
  kCpu = 0,      ///< TestCard::Run / SingleStep
  kScan,         ///< scan-chain reads and writes
  kTestcard,     ///< init, download, reset, host memory access, triggers
  kCheckpoint,   ///< snapshot save/restore, memory baseline
  kConvergence,  ///< boundary state hashing
  kDb,           ///< WAL observer callbacks
  kCount,
};

struct LayerTotals {
  int64_t calls = 0;
  int64_t ns = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t max_spans_per_lane = 100000);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Steady-clock nanoseconds (process-wide monotonic).
  static int64_t NowNs();

  /// Records a finished call of `layer` on the calling thread's lane. `name`
  /// must be a string literal.
  void Call(Layer layer, const char* name, int64_t start_ns, int64_t end_ns);

  /// RAII span on the calling thread's lane; spans begun inside it on the
  /// same lane record it as their parent. A null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    int64_t start_ns_ = 0;
    int64_t id_ = 0;
  };

  /// Totals per layer, for one lane or summed over all lanes. Read only
  /// after every recording thread has been joined.
  LayerTotals Totals(Layer layer, int lane) const;
  LayerTotals Totals(Layer layer) const;
  /// Start of the first and end of the last Call() on `lane` (0, 0 if none).
  std::pair<int64_t, int64_t> CallWindow(int lane) const;
  int lanes() const;

  size_t spans_recorded() const;
  size_t spans_dropped() const;

  /// Writes every recorded span as Chrome trace-event JSON, one thread lane
  /// per recording thread. Read only after every recording thread has been
  /// joined.
  bool WriteChromeTrace(const std::string& path, std::string* error) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t id;
    int64_t parent;
  };
  struct Lane {
    int index = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open;  ///< ids of open Scopes, innermost last
    std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> totals{};
    int64_t first_call_ns = 0;
    int64_t last_call_ns = 0;
    int64_t last_id = 0;  ///< span ids are unique per lane (lane in high bits)
    size_t dropped = 0;
  };

  Lane& ThisLane();
  static int64_t NextId(Lane& lane);
  void Push(Lane& lane, const char* name, int64_t start_ns, int64_t end_ns,
            int64_t id);

  const size_t max_spans_per_lane_;
  const uint64_t generation_;
  const int64_t epoch_ns_;

  mutable std::mutex mutex_;  ///< guards lanes_ registration
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

}  // namespace perfbench
