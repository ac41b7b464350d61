// perfbench/src/layers.hpp
//
// The traced run's per-layer probes.  Each one calls a layer's public
// functions from the benchmark's own code, with spans around the calls:
//
//   live probes (main thread, while the load runs): an empty
//     Store::run_at into each shard (net), Store::get_direct and
//     put_direct (kv), and the same GET and PUT over a socket (server);
//   after the window: server::parse_request on the run's own request
//     frames, kv::decode_token on the tokens the run received,
//     Store::encoded_state on sampled keys (codec), WAL appends of
//     those states (store), and an inline-transport twin store replaying
//     the run's ops (kv) followed by one digest anti-entropy pass (sync).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kv/store.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Samples the live probe loop collects, in microseconds.
struct LiveProbes {
  std::vector<double> hop_us;         ///< empty run_at, both shards
  std::vector<double> get_direct_us;  ///< Store::get_direct, workload keys
  std::vector<double> put_direct_us;  ///< Store::put_direct, probe keys
  std::vector<double> get_socket_us;  ///< the same GETs over a socket
  std::vector<double> put_socket_us;  ///< the same kind of PUTs over a socket
  std::uint64_t failed = 0;
};

/// Probes once per millisecond until `deadline_ns`.  Reads workload
/// keys (never writes them: the reply model owns those) and
/// read-modify-writes its own probe keys.
void run_live_probes(dvv::kv::Store& store, std::uint16_t port,
                     const WorkloadSpec& spec, std::uint64_t seed,
                     std::int64_t deadline_ns, SpanBuffer& spans,
                     LiveProbes& out);

/// Mean ns per server::parse_request over `payloads`.
[[nodiscard]] double time_parse_ns(const std::vector<std::string>& payloads,
                                   SpanBuffer& spans, std::uint64_t parent);

/// Mean ns per kv::decode_token (DVV context) over `tokens`.
[[nodiscard]] double time_token_decode_ns(const std::vector<std::string>& tokens,
                                          SpanBuffer& spans, std::uint64_t parent);

struct CodecStoreProbe {
  double encode_ns = 0.0;   ///< Store::encoded_state per call
  double append_ns = 0.0;   ///< WAL append per record
  double log_bytes_per_user_byte = 0.0;
};

/// Encodes sampled keys' states at their coordinators, then appends
/// them as records to a fresh WAL backend (flush_every = 1).  The store
/// must be quiescent.
[[nodiscard]] CodecStoreProbe probe_codec_and_wal(const dvv::kv::Store& store,
                                                  const WorkloadSpec& spec,
                                                  std::uint64_t seed,
                                                  SpanBuffer& spans,
                                                  std::uint64_t parent);

struct TwinProbe {
  double put_inline_us = 0.0;
  std::uint64_t puts = 0;
  double aae_pass_ms = 0.0;
  std::uint64_t keys_compared = 0;
  std::uint64_t wire_bytes = 0;
  double join_ms = 0.0;
  double leave_ms = 0.0;
  dvv::membership::TransferStats transfers;  ///< join and leave together
};

/// Builds an inline-transport twin of the served store with one spare
/// replica slot, preloads the keys the replayed ops touch, replays
/// streams[c][begin[c], end[c]) in stream order through Store::get /
/// Store::put, runs one anti_entropy_digest(), then joins the spare and
/// makes it leave again, each driven to a complete rebalance.
[[nodiscard]] TwinProbe probe_inline_twin(
    dvv::kv::StoreConfig config, const WorkloadSpec& spec,
    const std::vector<std::vector<Req>>& streams,
    const std::vector<std::size_t>& begin, const std::vector<std::size_t>& end,
    SpanBuffer& spans, std::uint64_t parent);

}  // namespace perfbench
