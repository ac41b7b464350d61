// perfbench/src/trace.hpp
//
// Spans for the traced run.  A span is (name, start, end, parent, op
// id), recorded by the benchmark's own code around its calls into each
// layer's public functions.  Each thread records into its own buffer
// (no locks on the recording path); the buffers are merged and written
// out when the benchmark ends.  A layer's self time is its spans'
// durations minus the part of each interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";      ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t parent = 0;   ///< id of the causing span; 0 = root
  std::uint64_t op = 0;       ///< request id shared by one request's spans
  std::uint64_t id = 0;       ///< (buffer << 40) | (index + 1)
};

/// One thread's span buffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint64_t buffer_id) : base_(buffer_id << 40) {}

  /// Opens a span; returns its id.
  std::uint64_t open(const char* name, std::uint64_t parent, std::uint64_t op,
                     std::int64_t start_ns = 0) {
    Span s;
    s.name = name;
    s.start_ns = start_ns != 0 ? start_ns : now_ns();
    s.parent = parent;
    s.op = op;
    s.id = base_ | (spans_.size() + 1);
    spans_.push_back(s);
    return s.id;
  }
  void close(std::uint64_t id, std::int64_t end_ns = 0) {
    spans_[(id & ((std::uint64_t{1} << 40) - 1)) - 1].end_ns =
        end_ns != 0 ? end_ns : now_ns();
  }
  /// A span whose interval is already known.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t parent, std::uint64_t op) {
    close(open(name, parent, op, start_ns), end_ns);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t base_;
  std::vector<Span> spans_;
};

/// Self time per span name, summed: {name, spans, total_ns, self_ns}.
struct SelfTime {
  std::string name;
  std::uint64_t spans = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
[[nodiscard]] std::vector<SelfTime> self_times(
    const std::vector<const SpanBuffer*>& buffers);

/// The same sums rolled up by layer: the span name's prefix before the
/// first '.' ("net.run_at" -> "net").
[[nodiscard]] std::vector<SelfTime> by_layer(const std::vector<SelfTime>& per_name);

/// Writes every span as one JSON object per line, then one summary line
/// per entry of `summary`.  False on I/O failure.
bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers,
                 const std::vector<SelfTime>& summary);

}  // namespace perfbench
