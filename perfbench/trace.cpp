#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_generation{0};

/// The calling thread's lane in the tracer of generation `generation`.
struct ThreadLane {
  uint64_t generation = 0;
  void* lane = nullptr;
};
thread_local ThreadLane t_lane;

}  // namespace

Tracer::Tracer(size_t max_spans_per_lane)
    : max_spans_per_lane_(max_spans_per_lane),
      generation_(g_generation.fetch_add(1) + 1),
      epoch_ns_(NowNs()) {}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Lane& Tracer::ThisLane() {
  if (t_lane.generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto lane = std::make_unique<Lane>();
    lane->index = static_cast<int>(lanes_.size());
    t_lane.generation = generation_;
    t_lane.lane = lane.get();
    lanes_.push_back(std::move(lane));
  }
  return *static_cast<Lane*>(t_lane.lane);
}

int64_t Tracer::NextId(Lane& lane) {
  return (static_cast<int64_t>(lane.index) << 40) + ++lane.last_id;
}

void Tracer::Push(Lane& lane, const char* name, int64_t start_ns,
                  int64_t end_ns, int64_t id) {
  if (lane.spans.size() >= max_spans_per_lane_) {
    ++lane.dropped;
    return;
  }
  const int64_t parent = lane.open.empty() ? 0 : lane.open.back();
  lane.spans.push_back({name, start_ns, end_ns, id, parent});
}

void Tracer::Call(Layer layer, const char* name, int64_t start_ns,
                  int64_t end_ns) {
  Lane& lane = ThisLane();
  if (lane.first_call_ns == 0) lane.first_call_ns = start_ns;
  lane.last_call_ns = end_ns;
  LayerTotals& totals = lane.totals[static_cast<size_t>(layer)];
  ++totals.calls;
  totals.ns += end_ns - start_ns;
  if (lane.spans.size() >= max_spans_per_lane_) {
    ++lane.dropped;
    return;
  }
  Push(lane, name, start_ns, end_ns, NextId(lane));
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) return;
  Lane& lane = tracer_->ThisLane();
  id_ = NextId(lane);
  lane.open.push_back(id_);
  start_ns_ = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const int64_t end_ns = NowNs();
  Lane& lane = tracer_->ThisLane();
  lane.open.pop_back();  // this scope; the parent is now innermost
  tracer_->Push(lane, name_, start_ns_, end_ns, id_);
}

LayerTotals Tracer::Totals(Layer layer, int lane) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (lane < 0 || lane >= static_cast<int>(lanes_.size())) return {};
  return lanes_[static_cast<size_t>(lane)]->totals[static_cast<size_t>(layer)];
}

LayerTotals Tracer::Totals(Layer layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  LayerTotals sum;
  for (const auto& lane : lanes_) {
    sum.calls += lane->totals[static_cast<size_t>(layer)].calls;
    sum.ns += lane->totals[static_cast<size_t>(layer)].ns;
  }
  return sum;
}

std::pair<int64_t, int64_t> Tracer::CallWindow(int lane) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (lane < 0 || lane >= static_cast<int>(lanes_.size())) return {0, 0};
  const Lane& l = *lanes_[static_cast<size_t>(lane)];
  return {l.first_call_ns, l.last_call_ns};
}

int Tracer::lanes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(lanes_.size());
}

size_t Tracer::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& lane : lanes_) n += lane->spans.size();
  return n;
}

size_t Tracer::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& lane : lanes_) n += lane->dropped;
  return n;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot write " + path;
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& lane : lanes_) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s %d\"}}",
                 first ? "" : ",\n", lane->index,
                 lane->index == 0 ? "main" : "lane", lane->index);
    first = false;
    for (const Span& span : lane->spans) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld}}",
                   span.name, lane->index,
                   static_cast<double>(span.start_ns - epoch_ns_) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<long long>(span.id),
                   static_cast<long long>(span.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    *error = "write failed for " + path;
    return false;
  }
  return true;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
