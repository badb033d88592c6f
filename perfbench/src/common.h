// Shared plumbing of the end-to-end benchmark: clocks, process
// resource readings, quantiles, the span tracer, and the result sink
// that prints metrics and counts failed checks.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// User + system CPU of every thread of this process, in seconds.
double ProcessCpuSeconds();

/// Peak resident set of this process so far, in MiB.
double PeakRssMiB();

/// Linear-interpolated quantile (q in [0, 1]) of continuous samples.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Quantile of samples that were rounded down to whole units (the
/// client library reports ack times in whole microseconds): each value v
/// stands for the interval [v, v + 1), and the quantile interpolates
/// inside the interval it falls in. Plain order statistics of such data
/// jump by whole units; this estimate moves smoothly with the
/// distribution.
double BinnedQuantile(std::vector<double> values, double q);

/// Latency samples of a measured phase, kept per time slice. A metric is
/// a quantile per slice, summarized over slices, so a second of load
/// from outside moves one slice and not the result.
/// Samples are floats, so the buffers barely move the process's peak
/// resident memory.
class SlicedSamples {
 public:
  void Reset(double slice_s, size_t slices);

  /// Records `value` taken `at_s` seconds into the phase; samples after
  /// the phase's end are dropped.
  void Add(double at_s, double value);

  void Append(const SlicedSamples& other);
  size_t Count() const;

  /// The q-quantile of each non-empty slice, in time order;
  /// `whole_units` selects BinnedQuantile.
  std::vector<double> SliceQuantiles(double q, bool whole_units) const;

 private:
  double slice_s_ = 1.0;
  std::vector<std::vector<float>> slices_;
};

/// Pins the calling thread to each pair of its usable CPUs in turn and
/// restores the original mask when destroyed. On a shared host the
/// speed of one core drifts by up to 1.7x for seconds at a time;
/// cycling a two-thread workload over every pair of cores makes each run
/// sample the same mix of cores instead of whichever ones it started
/// on. Threads the caller spawns while pinned inherit the pair.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinNextPair();
  size_t PairCount() const { return pairs_.size(); }

  /// Back to every CPU the thread started with.
  void Unpin();

 private:
  std::vector<int> cpus_;
  std::vector<std::pair<int, int>> pairs_;
  size_t next_ = 0;
};

/// In-memory span recorder. A span is one call from benchmark code into
/// a module of the library: name, start, end, and the span open on the
/// same thread when it began (its parent). Spans are kept until the run
/// ends, then aggregated into per-layer metrics and written out.
class Tracer {
 public:
  struct Record {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t thread = 0;
    double start_s = 0.0;  // since the tracer was created
    double end_s = 0.0;
  };

  Tracer();

  uint64_t Begin(const std::string& name);
  void End(uint64_t id);

  /// Adds a finished span measured elsewhere (e.g. per-shard timings
  /// taken on worker threads) as a child of the current span.
  void AddChild(const std::string& name, double seconds);

  /// Total self time per span name (duration minus the time covered by
  /// direct children), over the spans whose parent span is called
  /// `parent`.
  std::map<std::string, double> SelfSecondsUnder(
      const std::string& parent) const;

  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;
  std::vector<Record> records_;
};

/// RAII span; a null tracer makes it free, so the measured loops are
/// the same code with tracing on and off.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Collects the run's metrics and the verdicts of every output check.
/// Thread-safe.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  /// Records one checked operation; a false `ok` is a failure and is
  /// described on stderr.
  void Check(bool ok, const std::string& what);

  uint64_t Attempted() const;
  uint64_t Failed() const;

  /// The final result line: {"correct", "attempted", "failed",
  /// "metrics"}.
  std::string ResultJson() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  mutable std::mutex mutex_;
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Formats a double with all significant digits for JSON.
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
