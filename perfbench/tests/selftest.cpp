// Self-test of the benchmark's program-agnostic helpers: the cell digest
// behind the output check, the percentile helper, and the span recorder.
//
//   perfbench_selftest [trace.json]
//
// Exits non-zero on the first failed check. With a path, also writes a
// small Chrome trace there (tests/test_harness.py parses it).
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "digest.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using perfbench::CellDigest;
using perfbench::Layer;
using perfbench::Percentile;
using perfbench::Tracer;

uint64_t DigestOf(void (*fill)(CellDigest*)) {
  CellDigest digest;
  fill(&digest);
  return digest.value();
}

void TestCellDigest() {
  // Same cells, same digest.
  CHECK(DigestOf([](CellDigest* d) { d->Text("a"); d->Int(1); d->EndRow(); }) ==
        DigestOf([](CellDigest* d) { d->Text("a"); d->Int(1); d->EndRow(); }));
  // NULL, 0, 0.0, "0" and "" are all different cells.
  const uint64_t cells[] = {
      DigestOf([](CellDigest* d) { d->Null(); }),
      DigestOf([](CellDigest* d) { d->Int(0); }),
      DigestOf([](CellDigest* d) { d->Real(0.0); }),
      DigestOf([](CellDigest* d) { d->Text("0"); }),
      DigestOf([](CellDigest* d) { d->Text(""); }),
  };
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) CHECK(cells[i] != cells[j]);
  }
  // -0.0 and 0.0 are different bit patterns, so different cells.
  CHECK(DigestOf([](CellDigest* d) { d->Real(-0.0); }) != cells[2]);
  // Order matters.
  CHECK(DigestOf([](CellDigest* d) { d->Int(1); d->Int(2); }) !=
        DigestOf([](CellDigest* d) { d->Int(2); d->Int(1); }));
  // Cell and row boundaries cannot be shifted.
  CHECK(DigestOf([](CellDigest* d) { d->Text("ab"); d->Text("c"); }) !=
        DigestOf([](CellDigest* d) { d->Text("a"); d->Text("bc"); }));
  CHECK(DigestOf([](CellDigest* d) { d->Int(1); d->EndRow(); d->Int(2); d->EndRow(); }) !=
        DigestOf([](CellDigest* d) { d->Int(1); d->Int(2); d->EndRow(); d->EndRow(); }));
  // One flipped bit in a long text changes the digest.
  std::string text(4096, 'x');
  const uint64_t before = DigestOf([](CellDigest* d) { d->Text(std::string(4096, 'x')); });
  text[2048] ^= 1;
  CellDigest flipped;
  flipped.Text(text);
  CHECK(flipped.value() != before);
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestPercentile() {
  CHECK(Percentile({}, 50) == 0.0);
  CHECK(Percentile({7}, 99) == 7.0);
  const std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
  CHECK(Near(Percentile(v, 0), 1));
  CHECK(Near(Percentile(v, 100), 5));
  CHECK(Near(Percentile(v, 50), 3));
  CHECK(Near(Percentile(v, 25), 2));
  CHECK(Near(Percentile(v, 90), 4.6));
  CHECK(Near(Percentile({1, 2, 3, 4}, 50), 2.5));
  CHECK(Near(Percentile({1, 2}, 150), 2));  // clamped
}

void TestTracer(const char* trace_path) {
  Tracer tracer(/*max_spans_per_lane=*/8);
  {
    Tracer::Scope outer(&tracer, "outer");
    {
      Tracer::Scope inner(&tracer, "inner");
      tracer.Call(Layer::kCpu, "Run", Tracer::NowNs(), Tracer::NowNs() + 1000);
    }
    tracer.Call(Layer::kDb, "wal.insert", 100, 350);
  }
  std::thread worker([&tracer] {
    tracer.Call(Layer::kCpu, "Run", 1000, 3000);
    tracer.Call(Layer::kScan, "ReadScanChain", 3000, 3500);
  });
  worker.join();
  CHECK(tracer.lanes() == 2);
  CHECK(tracer.Totals(Layer::kCpu).calls == 2);
  CHECK(tracer.Totals(Layer::kCpu, 1).ns == 2000);
  CHECK(tracer.Totals(Layer::kDb, 0).ns == 250);
  CHECK(tracer.Totals(Layer::kScan, 0).calls == 0);
  const std::pair<int64_t, int64_t> window = tracer.CallWindow(1);
  CHECK(window.first == 1000 && window.second == 3500);
  CHECK(tracer.spans_recorded() == 6);
  CHECK(tracer.spans_dropped() == 0);

  // Past a lane's span budget, calls still count but keep no span.
  for (int i = 0; i < 20; ++i) tracer.Call(Layer::kTestcard, "Init", 0, 10);
  CHECK(tracer.spans_recorded() == 8 + 2);
  CHECK(tracer.spans_dropped() == 16);
  CHECK(tracer.Totals(Layer::kTestcard).calls == 20);

  if (trace_path != nullptr) {
    std::string error;
    CHECK(tracer.WriteChromeTrace(trace_path, &error));
  }
}

}  // namespace

int main(int argc, char** argv) {
  TestCellDigest();
  TestPercentile();
  TestTracer(argc > 1 ? argv[1] : nullptr);
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::puts("perfbench selftest: ok");
  return 0;
}
