// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded by the benchmark's own code around its calls into the
// library's public functions (one span per call), so the library itself is
// measured unmodified.  A span has a name, start and end (seconds since the
// tracer was created), the index of its parent span and, for server
// requests, the request id.  Everything stays in memory until write_json()
// at the end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = kNoParent;
    std::string request;  ///< server request id ("" outside the server workload)
  };

  /// RAII handle closing the span it opened; inert when tracing is off.
  class Scope {
   public:
    Scope(Scope&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() { close(); }
    void close();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Seconds since the tracer was created (steady clock).
  double now() const;

  /// Opens a span as a child of the innermost open span.  The benchmark
  /// is single-threaded, so open spans form a stack.
  Scope span(std::string name, std::string request = {});

  /// Records an already-finished span (used for server requests, whose
  /// start and end are observed on different threads).  Returns its index
  /// so children can point at it; -1 when tracing is off.
  int record(std::string name, double start, double end, int parent = kNoParent,
             std::string request = {});

  /// Sum of the durations of all spans named @p name.
  double total(const std::string& name) const;
  /// Sum of the self times of all spans named @p name: duration minus the
  /// time covered by child spans.  Children of one span never overlap
  /// (they are sequential calls on the benchmark thread, or the single
  /// serve.query span of a request), so covered time is their sum.
  double self(const std::string& name) const;

  /// Writes every span as JSON (name, start, end, parent, request, self).
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  /// Per span: the summed duration of its direct children.
  std::vector<double> covered() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
