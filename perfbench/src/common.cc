#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * double(values.size() - 1);
  const size_t low = size_t(std::floor(rank));
  const size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (rank - double(low)) * (values[high] - values[low]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double BinnedQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double target = q * double(values.size());
  // First index of the bin holding the target rank, and that bin's size.
  const size_t at = std::min(size_t(target), values.size() - 1);
  const double v = values[at];
  const size_t first =
      size_t(std::lower_bound(values.begin(), values.end(), v) -
             values.begin());
  const size_t last =
      size_t(std::upper_bound(values.begin(), values.end(), v) -
             values.begin());
  const double inside = (target - double(first)) / double(last - first);
  return v + std::clamp(inside, 0.0, 1.0);
}

void SlicedSamples::Reset(double slice_s, size_t slices) {
  slice_s_ = slice_s;
  slices_.assign(slices, {});
}

void SlicedSamples::Add(double at_s, double value) {
  const size_t slice = size_t(at_s / slice_s_);
  if (slice < slices_.size()) slices_[slice].push_back(float(value));
}

void SlicedSamples::Append(const SlicedSamples& other) {
  for (size_t i = 0; i < slices_.size() && i < other.slices_.size(); ++i) {
    slices_[i].insert(slices_[i].end(), other.slices_[i].begin(),
                      other.slices_[i].end());
  }
}

size_t SlicedSamples::Count() const {
  size_t count = 0;
  for (const auto& slice : slices_) count += slice.size();
  return count;
}

std::vector<double> SlicedSamples::SliceQuantiles(double q,
                                                  bool whole_units) const {
  std::vector<double> per_slice;
  for (const auto& slice : slices_) {
    if (slice.empty()) continue;
    std::vector<double> values(slice.begin(), slice.end());
    per_slice.push_back(whole_units ? BinnedQuantile(std::move(values), q)
                                    : Quantile(std::move(values), q));
  }
  return per_slice;
}

namespace {

thread_local std::vector<uint64_t> open_spans;

void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
  for (size_t a = 0; a < cpus_.size(); ++a) {
    for (size_t b = a + 1; b < cpus_.size(); ++b)
      pairs_.push_back({cpus_[a], cpus_[b]});
  }
}

CpuRotation::~CpuRotation() { Unpin(); }

void CpuRotation::Unpin() {
  if (!pairs_.empty()) PinTo(cpus_);
}

void CpuRotation::PinNextPair() {
  if (pairs_.empty()) return;
  const auto [a, b] = pairs_[next_++ % pairs_.size()];
  PinTo({a, b});
}

Tracer::Tracer() : origin_(Clock::now()) {}

uint64_t Tracer::Begin(const std::string& name) {
  const double now = SecondsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  Record record;
  record.name = name;
  record.id = next_id_++;
  record.parent = open_spans.empty() ? 0 : open_spans.back();
  record.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  record.start_s = now;
  records_.push_back(std::move(record));
  open_spans.push_back(records_.back().id);
  return records_.back().id;
}

void Tracer::End(uint64_t id) {
  const double now = SecondsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  // Ids are dense and 1-based, so the record sits at index id - 1.
  records_[id - 1].end_s = now;
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

void Tracer::AddChild(const std::string& name, double seconds) {
  const double now = SecondsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  Record record;
  record.name = name;
  record.id = next_id_++;
  record.parent = open_spans.empty() ? 0 : open_spans.back();
  record.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  record.start_s = now - seconds;
  record.end_s = now;
  records_.push_back(std::move(record));
}

std::map<std::string, double> Tracer::SelfSecondsUnder(
    const std::string& parent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_time(records_.size() + 1, 0.0);
  for (const Record& r : records_) {
    if (r.parent != 0) child_time[r.parent] += r.end_s - r.start_s;
  }
  std::map<std::string, double> self;
  for (const Record& r : records_) {
    if (r.parent == 0 || records_[r.parent - 1].name != parent) continue;
    self[r.name] += r.end_s - r.start_s - child_time[r.id];
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Record& r : records_) {
    out << "{\"name\":" << JsonString(r.name) << ",\"id\":" << r.id
        << ",\"parent\":" << r.parent << ",\"thread\":" << r.thread
        << ",\"start_s\":" << JsonNumber(r.start_s)
        << ",\"end_s\":" << JsonNumber(r.end_s) << "}\n";
  }
  return bool(out);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Metric{value, unit};
}

bool Report::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.count(name) != 0;
}

double Report::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

uint64_t Report::Attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

uint64_t Report::Failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::string Report::ResultJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"correct\": ";
  out += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Metric& metric = metrics_.at(name);
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  out += "}}";
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
