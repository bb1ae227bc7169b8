#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "support/telemetry.hpp"

namespace perfbench {

void Tracer::Scope::close() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end = tracer_->now();
  tracer_->open_.pop_back();
  tracer_ = nullptr;
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

Tracer::Scope Tracer::span(std::string name, std::string request) {
  if (!enabled_) return Scope(nullptr, kNoParent);
  const int parent = open_.empty() ? kNoParent : open_.back();
  const double start = now();
  const int index = record(std::move(name), start, start, parent, std::move(request));
  open_.push_back(index);
  return Scope(this, index);
}

int Tracer::record(std::string name, double start, double end, int parent, std::string request) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{std::move(name), start, end, parent, std::move(request)});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

std::vector<double> Tracer::covered() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  return covered;
}

double Tracer::self(const std::string& name) const {
  const std::vector<double> child_time = covered();
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      sum += std::max(0.0, spans_[i].end - spans_[i].start - child_time[i]);
    }
  }
  return sum;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<double> child_time = covered();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"schema\": \"unicon-perfbench-trace-v1\", \"spans\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"start\": %.9f, \"end\": %.9f, \"parent\": %d, \"self\": %.9f",
                  s.start, s.end, s.parent, std::max(0.0, s.end - s.start - child_time[i]));
    out << "  {\"name\": \"" << unicon::telemetry::json_escape(s.name) << "\", " << buf
        << ", \"request\": \"" << unicon::telemetry::json_escape(s.request) << "\"}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
