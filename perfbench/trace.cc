#include "trace.h"

#include <algorithm>
#include <climits>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "server",  "engine", "sql",  "optimizer", "exec",     "storage",
      "txn",     "monitor", "ima", "daemon",    "analyzer", "tuner"};
  return kNames[static_cast<int>(layer)];
}

int64_t Trace::Lane::Add(const char* name, Layer layer, int64_t start_ns,
                         int64_t end_ns, int64_t request, int64_t parent) {
  if (spans_.size() >= kMaxSpansPerLane) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, layer, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Trace::Lane::AddParts(int64_t parent, int64_t start_ns, int64_t request,
                           const std::vector<Part>& parts) {
  if (parent < 0) return;
  int64_t at = start_ns;
  for (const Part& part : parts) {
    if (part.nanos <= 0) continue;
    Add(part.name, part.layer, at, at + part.nanos, request, parent);
    at += part.nanos;
  }
}

Trace::Lane* Trace::NewLane() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.push_back(std::make_unique<Lane>());
  lanes_.back()->id_ = static_cast<int>(lanes_.size());
  lanes_.back()->spans_.reserve(4096);
  return lanes_.back().get();
}

void Trace::Attribute(Layer layer, int64_t nanos) {
  self_ns_[static_cast<int>(layer)].fetch_add(nanos,
                                              std::memory_order_relaxed);
}

int64_t Trace::SelfNanos(Layer layer) const {
  return self_ns_[static_cast<int>(layer)].load(std::memory_order_relaxed);
}

int64_t Trace::AttributedNanos() const {
  int64_t total = 0;
  for (int i = 0; i < kNumLayers; ++i) {
    total += SelfNanos(static_cast<Layer>(i));
  }
  return total;
}

bool Trace::Write(const std::string& path,
                  const std::string& header_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t origin = INT64_MAX;
  int64_t dropped = 0;
  for (const auto& lane : lanes_) {
    dropped += lane->dropped_;
    for (const Span& s : lane->spans_) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"otherData\": %s,\n\"spans_dropped\": %lld,\n",
               header_json.c_str(), static_cast<long long>(dropped));
  std::fprintf(f, "\"self_nanos\": {");
  for (int i = 0; i < kNumLayers; ++i) {
    std::fprintf(f, "%s\"%s\": %lld", i == 0 ? "" : ", ",
                 LayerName(static_cast<Layer>(i)),
                 static_cast<long long>(SelfNanos(static_cast<Layer>(i))));
  }
  std::fprintf(f, "},\n\"traceEvents\": [\n");
  bool first = true;
  for (const auto& lane : lanes_) {
    for (size_t i = 0; i < lane->spans_.size(); ++i) {
      const Span& s = lane->spans_[i];
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
          "\"parent\":%lld,\"request\":%lld}}",
          first ? "" : ",\n", s.name, LayerName(s.layer), lane->id_,
          static_cast<double>(s.start_ns - origin) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
          static_cast<long long>(s.parent),
          static_cast<long long>(s.request));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
