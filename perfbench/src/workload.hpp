// perfbench/src/workload.hpp
//
// The four workloads, the seeded op streams they expand to, the value
// encoding, and the reply model every GET is checked against.
//
// An op stream belongs to one client connection and touches only that
// connection's keys.  It is a sequence of requests (GET or PUT), fixed
// by the seed before anything is timed.  A PUT names the GET whose
// token it carries by distance back in the stream (0 = blind write).
//
// Per-key phase rule, which Connection (connection.hpp) enforces while it
// sends: a request waits (the stream is never reordered) while its key
// has an in-flight request of the other kind — GETs overlap GETs, PUTs
// overlap PUTs, never a GET and a PUT — and a PUT also waits for the
// reply of the GET whose token it carries.  Hence every GET observes
// exactly the PUTs before it in stream order, and PUTs that overlap
// were all sent with tokens that predate each other, so they are truly
// concurrent and their outcome does not depend on arrival order.  The
// whole reply sequence is therefore a function of the seed, and the
// model below predicts it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Kind : std::uint8_t { kRmw, kReadMostly, kStorm };

/// Everything that shapes one workload.  Counts are per connection.
struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kRmw;
  std::size_t connections = 2;
  std::size_t window = 32;           ///< in-flight requests per connection
  std::size_t keys_per_conn = 8192;  ///< preloaded keys owned by a connection
  std::size_t value_bytes = 100;
  std::size_t logical_clients = 16;  ///< client ids per connection
  double read_only_frac = 0.0;       ///< read_mostly: share of plain GETs
  double zipf_theta = 0.0;           ///< read_mostly: skew of plain GETs
  std::size_t put_lag = 16;          ///< transactions between GET and its PUT
  bool wal = false;                  ///< WAL storage (flush_every = 1)
  bool churn = false;                ///< admin JOIN/LEAVE cycles under load
  std::size_t warmup_requests = 4000;  ///< untimed stream prefix
  /// GETs (per connection, from the first timed request) over which
  /// siblings_per_get and token_bytes_per_get are taken, so that both
  /// are exact counts for a seed whatever the run's speed.
  std::size_t prefix_gets = 8000;
  std::size_t stream_requests = 0;   ///< generated stream length
};

/// The named workload at benchmark scale, or scaled down for the
/// benchmark's own tests (`short_mode`).  Throws on an unknown name.
[[nodiscard]] WorkloadSpec make_spec(std::string_view name, bool short_mode,
                                     double seconds);

enum class Op : std::uint8_t { kGet = 0, kPut = 1 };

/// One generated request.  The value a PUT writes is derived from
/// (connection, client, stream index) — see encode_value.
struct Req {
  std::uint32_t key = 0;         ///< index into the connection's keys
  Op op = Op::kGet;
  std::uint8_t client = 0;       ///< logical client, < logical_clients
  std::uint16_t pad = 0;
  std::uint32_t token_back = 0;  ///< PUT: distance back to its GET; 0 blind
};
static_assert(sizeof(Req) == 12);

/// Longest GET->PUT distance a stream may contain; a Connection keeps the
/// last kTokenRing replies' tokens.
inline constexpr std::size_t kTokenRing = 1024;

[[nodiscard]] std::vector<Req> generate_stream(const WorkloadSpec& spec,
                                               std::uint64_t seed,
                                               std::size_t conn);

/// Key string of a connection's key index.
[[nodiscard]] std::string key_name(std::size_t conn, std::uint32_t key);

/// Client id of the preload's blind writes (never a logical client).
inline constexpr std::uint64_t kPreloadClient = 0;

/// Wire client id of a connection's logical client.
[[nodiscard]] inline std::uint64_t wire_client(std::size_t conn,
                                               std::uint8_t client) {
  return 1 + conn * 256 + client;
}

/// Value ids: 0 is the key's preloaded value, i + 1 the value written
/// by the PUT at stream index i.
using ValueId = std::uint32_t;

/// The value bytes for an id: a header naming (connection, logical
/// client, sequence) — or (connection, key) for the preload — padded
/// with a deterministic filler to `value_bytes`.
void encode_value(std::string& out, std::size_t value_bytes, std::size_t conn,
                  std::uint32_t key, std::uint8_t client, ValueId id);

/// Inverse of encode_value, checked against the stream: false unless the
/// bytes are exactly what encode_value makes for a PUT of `key` on this
/// connection (or its preload).
[[nodiscard]] bool decode_value(std::string_view bytes, std::size_t value_bytes,
                                std::size_t conn, std::uint32_t key,
                                const std::vector<Req>& stream, ValueId& id);

/// The client-visible reply model: per key, the sibling set a GET must
/// return.  A blind PUT adds its value; a PUT with the token of GET g
/// replaces every sibling g returned with its value.
class Model {
 public:
  explicit Model(std::size_t keys) : siblings_(keys, std::vector<ValueId>{0}) {}

  [[nodiscard]] const std::vector<ValueId>& siblings(std::uint32_t key) const {
    return siblings_[key];
  }
  void put(std::uint32_t key, ValueId id, const std::vector<ValueId>* seen);
  /// Live values: every sibling of every key, counted once.
  [[nodiscard]] std::size_t live_values() const;

 private:
  std::vector<std::vector<ValueId>> siblings_;  ///< each sorted
};

}  // namespace perfbench
