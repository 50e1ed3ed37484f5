#include "bench.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "obs/trace.h"

namespace perfbench {

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::E2e(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) Invalid("metric " + name + " is not finite");
  e2e_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Layer(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) Invalid("metric " + name + " is not finite");
  layers_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Count(const std::string& name, uint64_t value) {
  counts_.emplace_back(name, value);
  Layer(name, static_cast<double>(value), "count");
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void Report::Fail(uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  problems_.push_back(std::to_string(n) + " failed: " + why);
}

void Report::Invalid(const std::string& why) { problems_.push_back(why); }

void Report::Print(bool trace) const {
  std::string line = "meta {";
  for (size_t i = 0; i < meta_.size(); i++) {
    line += (i ? ", \"" : "\"") + meta_[i].first + "\": \"" +
            meta_[i].second + "\"";
  }
  std::printf("%s}\n", line.c_str());
  line = "counts {";
  for (size_t i = 0; i < counts_.size(); i++) {
    line += (i ? ", \"" : "\"") + counts_[i].first +
            "\": " + std::to_string(counts_[i].second);
  }
  std::printf("%s}\n", line.c_str());
  for (const std::string& p : problems_) {
    std::printf("problem %s\n", p.c_str());
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  const std::vector<Metric>& metrics = trace ? layers_ : e2e_;
  line = "{\"correct\": ";
  line += problems_.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

double NowSecs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;  // 5: reset VmHWM to VmRSS
  return std::fclose(f) == 0 && wrote;
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  double kib = std::nan("");
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

StaticOracle::StaticOracle(const std::vector<value_t>& values)
    : sorted_(values), prefix_(values.size() + 1, 0) {
  std::sort(sorted_.begin(), sorted_.end());
  for (size_t i = 0; i < sorted_.size(); i++) {
    prefix_[i + 1] = prefix_[i] + sorted_[i];
  }
}

QueryResult StaticOracle::Answer(const RangeQuery& q) const {
  if (q.low > q.high) return {};
  const size_t a = static_cast<size_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), q.low) -
      sorted_.begin());
  const size_t b = static_cast<size_t>(
      std::upper_bound(sorted_.begin(), sorted_.end(), q.high) -
      sorted_.begin());
  return QueryResult{prefix_[b] - prefix_[a], static_cast<int64_t>(b - a)};
}

FenwickOracle::FenwickOracle(size_t domain)
    : n_(domain), log_(0), count_(domain + 1, 0), sum_(domain + 1, 0) {
  while ((size_t{1} << (log_ + 1)) <= n_) log_++;
}

void FenwickOracle::Add(value_t v, int64_t times) {
  total_ += times;
  for (size_t i = static_cast<size_t>(v) + 1; i <= n_; i += i & (~i + 1)) {
    count_[i] += times;
    sum_[i] += times * v;
  }
}

QueryResult FenwickOracle::Prefix(int64_t last) const {
  QueryResult r;
  if (last < 0) return r;
  size_t i = std::min(static_cast<size_t>(last) + 1, n_);
  for (; i > 0; i -= i & (~i + 1)) {
    r.count += count_[i];
    r.sum += sum_[i];
  }
  return r;
}

QueryResult FenwickOracle::Answer(const RangeQuery& q) const {
  if (q.low > q.high) return {};
  const QueryResult hi = Prefix(q.high);
  const QueryResult lo = Prefix(q.low - 1);
  return QueryResult{hi.sum - lo.sum, hi.count - lo.count};
}

value_t FenwickOracle::Kth(int64_t k) const {
  size_t pos = 0;
  for (int b = log_; b >= 0; b--) {
    const size_t next = pos + (size_t{1} << b);
    if (next <= n_ && count_[next] <= k) {
      pos = next;
      k -= count_[next];
    }
  }
  return static_cast<value_t>(pos);  // 1-based pos+1 holds the value pos
}

void SpanCollector::Start(size_t capacity) {
  progidx::obs::SetRingCapacityForTesting(capacity);
  progidx::obs::EnableTracing(dir_ + "/trace.json");
}

void SpanCollector::Stop() { progidx::obs::DisableTracing(); }

bool SpanCollector::Collect() {
  const uint64_t dropped = progidx::obs::DroppedSpans();
  dropped_ += dropped;
  // A fresh path per flush: FlushTrace skips rewriting a path it has
  // already written when nothing new is buffered.
  const std::string path =
      dir_ + "/trace-" + std::to_string(flushes_++) + ".json";
  // Redirecting re-enables tracing; leave it as the caller had it.
  const bool was_tracing = progidx::obs::TracingEnabled();
  progidx::obs::EnableTracing(path);
  const bool flushed = progidx::obs::FlushTrace();
  if (!was_tracing) progidx::obs::DisableTracing();
  if (!flushed) {
    ok_ = false;
    return false;
  }
  struct Event {
    std::string name;
    double ts;
    double dur;
    unsigned tid;
  };
  std::vector<Event> events;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    ok_ = false;
    return false;
  }
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char name[128];
    char cat[128];
    double ts = 0;
    double dur = 0;
    unsigned tid = 0;
    if (std::sscanf(line,
                    "{\"name\":\"%127[^\"]\",\"cat\":\"%127[^\"]\","
                    "\"ph\":\"X\",\"ts\":%lf,\"dur\":%lf,\"pid\":%*d,"
                    "\"tid\":%u}",
                    name, cat, &ts, &dur, &tid) == 5) {
      events.push_back({name, ts, dur, tid});
    }
  }
  std::fclose(f);
  std::filesystem::remove(path);
  // Self time: walk each thread's spans in start order (longest first
  // on ties) with a stack of open ancestors.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<double> child(events.size(), 0);
  std::vector<size_t> open;
  for (size_t i = 0; i < events.size(); i++) {
    const Event& e = events[i];
    while (!open.empty()) {
      const Event& top = events[open.back()];
      if (top.tid == e.tid && e.ts + e.dur <= top.ts + top.dur + 1e-3) break;
      open.pop_back();
    }
    if (!open.empty()) child[open.back()] += e.dur;
    open.push_back(i);
  }
  for (size_t i = 0; i < events.size(); i++) {
    Stats& s = by_name_[events[i].name];
    s.dur_us.push_back(events[i].dur);
    s.self_us += std::max(0.0, events[i].dur - child[i]);
  }
  return dropped == 0;
}

const SpanCollector::Stats& SpanCollector::Get(const std::string& name) const {
  static const Stats kEmpty;
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

uint64_t CounterValue(const char* name) {
  return progidx::obs::Counter(name).Value();
}

double HistogramDeltaQuantileUs(const progidx::obs::LocalHistogram& before,
                                const progidx::obs::LocalHistogram& after,
                                double q) {
  using progidx::obs::Buckets;
  std::vector<uint64_t> delta(Buckets::kCount, 0);
  uint64_t total = 0;
  for (size_t i = 0; i < Buckets::kCount; i++) {
    delta[i] = after.counts()[i] - before.counts()[i];
    total += delta[i];
  }
  if (total == 0) return 0;
  // The registry's own rank rule (LocalHistogram::ValueAtQuantile).
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(total) + 0.5);
  uint64_t cum = 0;
  for (size_t i = 0; i < Buckets::kCount; i++) {
    cum += delta[i];
    if (delta[i] != 0 && cum >= target) {
      return static_cast<double>(Buckets::UpperBound(i)) / 1e3;
    }
  }
  return 0;
}

double HostProbeGbps() {
  constexpr size_t kElems = size_t{1} << 23;  // 64 MiB
  std::vector<uint64_t> buf(kElems);
  for (size_t i = 0; i < kElems; i++) buf[i] = i * 0x9e3779b97f4a7c15ull;
  std::vector<double> rates;
  volatile uint64_t sink = 0;  // keeps the loop from being elided
  for (int rep = 0; rep < 5; rep++) {
    const double t0 = NowSecs();
    uint64_t acc = 0;
    for (size_t i = 0; i < kElems; i++) acc += buf[i];
    const double t1 = NowSecs();
    sink = sink + acc;
    rates.push_back(static_cast<double>(kElems * 8) / (t1 - t0) / 1e9);
  }
  return Median(rates);
}

}  // namespace perfbench
