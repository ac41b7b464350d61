// perfbench/src/connection.hpp
//
// One client connection's closed-loop generator.  It owns a TCP
// connection to dvvd, its op stream and its share of the reply model,
// keeps up to `window` requests in flight, and sends the stream in
// order: a request that would break the per-key phase rule
// (workload.hpp) or still lacks its token waits — the generator reads
// replies until it may go, and never reorders.  Every reply is checked
// against the model as it arrives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "server/protocol.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// What one connection measured while recording.
struct ConnStats {
  std::vector<std::uint32_t> get_ns;  ///< send->reply, kOk GETs
  std::vector<std::uint32_t> put_ns;  ///< send->reply, kOk PUTs
  std::uint64_t attempted = 0;        ///< requests sent
  std::uint64_t failed_get = 0;       ///< non-kOk or missing GET replies
  std::uint64_t failed_put = 0;       ///< non-kOk or missing PUT replies
  std::int64_t first_send_ns = 0;
  std::int64_t last_reply_ns = 0;
  bool stream_exhausted = false;
  // The exact prefix: the first `prefix_gets` GETs from the first
  // recorded request on.
  std::uint64_t prefix_gets = 0;
  std::uint64_t prefix_values = 0;
  std::uint64_t prefix_token_bytes = 0;
  std::uint64_t max_siblings = 0;  ///< over every GET while recording
};

/// Samples the traced run keeps for the per-layer probes.
struct TraceSamples {
  std::vector<std::string> request_payloads;  ///< encoded requests sent
  std::vector<std::string> tokens;            ///< tokens GETs returned
};

inline constexpr std::size_t kNoDrop = std::numeric_limits<std::size_t>::max();

class Connection {
 public:
  /// Connects to 127.0.0.1:port.  `drop_put` names a stream index whose
  /// PUT the model deliberately forgets (the model-check self test).
  Connection(const WorkloadSpec& spec, std::size_t conn,
             const std::vector<Req>& stream, std::uint16_t port,
             std::size_t drop_put = kNoDrop);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends stream requests until index `end` or the steady-clock
  /// `deadline_ns`, then drains every in-flight reply.  While
  /// `record`, fills the stats; a recording phase also runs past the
  /// deadline until the exact prefix is complete.  Spans and samples
  /// are kept when given.  False once the connection is broken.
  bool run(std::size_t end, std::int64_t deadline_ns, bool record,
           SpanBuffer* spans = nullptr, TraceSamples* samples = nullptr);

  /// The recorded stats, leaving them empty for the next phase.
  [[nodiscard]] ConnStats take_stats();
  [[nodiscard]] std::size_t cursor() const { return cursor_; }
  [[nodiscard]] const Model& model() const { return model_; }
  /// Model-check mismatches so far, and the first few described.
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] const std::vector<std::string>& mismatch_notes() const {
    return notes_;
  }

 private:
  struct Inflight {
    std::uint32_t index = 0;
    std::int64_t send_ns = 0;
    std::vector<ValueId> expected;  ///< GET: the model's sibling set
  };
  struct TokenSlot {
    std::uint32_t index_plus1 = 0;  ///< GET stream index + 1 once replied
    bool blind = false;             ///< the GET failed: its PUT goes blind
    std::string token;
    std::vector<ValueId> seen;
  };

  bool can_send(const Req& r, std::size_t index) const;
  void enqueue(std::size_t index, bool record, TraceSamples* samples);
  bool read_some(bool record, SpanBuffer* spans, TraceSamples* samples);
  void on_reply(std::string_view payload, bool record, SpanBuffer* spans,
                TraceSamples* samples);
  void fail_inflight(bool record);
  void mismatch(std::uint32_t index, const std::string& what);

  const WorkloadSpec& spec_;
  std::size_t conn_;
  const std::vector<Req>& stream_;
  std::size_t drop_put_;
  int fd_ = -1;
  bool broken_ = false;

  std::vector<std::string> keys_;  ///< key strings by index
  Model model_;
  std::vector<std::uint8_t> reads_in_flight_;
  std::vector<std::uint8_t> writes_in_flight_;
  std::vector<TokenSlot> tokens_;
  std::vector<Inflight> ring_;  ///< FIFO of in-flight requests
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t cursor_ = 0;

  dvv::server::FrameDecoder decoder_;
  std::string outbuf_;
  std::string payload_;
  std::string value_;
  std::vector<char> readbuf_;
  dvv::server::Response resp_;
  std::vector<ValueId> got_;

  ConnStats stats_;
  std::uint64_t mismatches_ = 0;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
