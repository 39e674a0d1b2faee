#include "spans.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int SpanRecorder::open(std::string name, int parent, int sim, int core,
                       msvm::TimePs virt_start) {
  const double now = host_now_s();
  spans_.push_back(
      Span{std::move(name), parent, sim, core, now, now, virt_start,
           virt_start});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int span, msvm::TimePs virt_end) {
  Span& s = spans_.at(static_cast<std::size_t>(span));
  s.host_end_s = host_now_s();
  s.virt_end_ps = std::max(virt_end, s.virt_start_ps);
}

void SpanRecorder::set(int span, double host_start_s, double host_end_s,
                       msvm::TimePs virt_start, msvm::TimePs virt_end) {
  Span& s = spans_.at(static_cast<std::size_t>(span));
  s.host_start_s = host_start_s;
  s.host_end_s = host_end_s;
  s.virt_start_ps = virt_start;
  s.virt_end_ps = virt_end;
}

void SpanRecorder::add(std::string name, int parent, int sim, int core,
                       double host_start_s, double host_end_s,
                       msvm::TimePs virt_start, msvm::TimePs virt_end) {
  spans_.push_back(Span{std::move(name), parent, sim, core, host_start_s,
                        host_end_s, virt_start, virt_end});
}

void SpanRecorder::label_sim(int sim, std::string label) {
  if (sim < 0) return;
  const auto i = static_cast<std::size_t>(sim);
  if (sim_labels_.size() <= i) sim_labels_.resize(i + 1);
  sim_labels_[i] = std::move(label);
}

namespace {

void meta(std::FILE* f, bool& first, int pid, const char* what,
          const std::string& value) {
  std::fprintf(f,
               "%s\n{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"%s\","
               "\"args\":{\"name\":\"%s\"}}",
               first ? "" : ",", pid, what, value.c_str());
  first = false;
}

}  // namespace

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().host_start_s;
  for (const Span& s : spans_) origin = std::min(origin, s.host_start_s);

  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  meta(f, first, 1, "process_name", "host clock");
  for (std::size_t i = 0; i < sim_labels_.size(); ++i) {
    meta(f, first, 100 + static_cast<int>(i), "process_name",
         "virtual clock: sim " + std::to_string(i) + " " + sim_labels_[i]);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double hs = (s.host_start_s - origin) * 1e6;
    const double hd = (s.host_end_s - s.host_start_s) * 1e6;
    const double vs = static_cast<double>(s.virt_start_ps) / 1e6;
    const double vd =
        static_cast<double>(s.virt_end_ps - s.virt_start_ps) / 1e6;
    char args[256];
    std::snprintf(args, sizeof(args),
                  "{\"id\":%zu,\"parent\":%d,\"sim\":%d,\"core\":%d,"
                  "\"host_start_us\":%.3f,\"host_end_us\":%.3f,"
                  "\"virt_start_us\":%.6f,\"virt_end_us\":%.6f}",
                  i, s.parent, s.sim, s.core, hs, hs + hd, vs, vs + vd);
    const int tid = s.core + 1;
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}",
                 s.name.c_str(), tid, hs, hd, args);
    if (s.sim >= 0) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                   "\"ts\":%.6f,\"dur\":%.6f,\"args\":%s}",
                   s.name.c_str(), 100 + s.sim, tid, vs, vd, args);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
