// perfbench/src/layers.cpp — the traced run's per-layer probes.
#include "layers.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/version_vector.hpp"
#include "kv/token.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "store/backend.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kProbeKeys = 64;
constexpr std::size_t kMinTimedCalls = 200'000;

double us_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e3;
}

/// Seeded pick of a workload key (connection, index).
struct KeyPicker {
  std::uint64_t state;
  std::string next(const WorkloadSpec& spec) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t conn = (state >> 33) % spec.connections;
    const auto key = static_cast<std::uint32_t>((state >> 17) % spec.keys_per_conn);
    return key_name(conn, key);
  }
};

}  // namespace

void run_live_probes(dvv::kv::Store& store, std::uint16_t port,
                     const WorkloadSpec& spec, std::uint64_t seed,
                     std::int64_t deadline_ns, SpanBuffer& spans,
                     LiveProbes& out) {
  dvv::server::Client client(port);
  KeyPicker pick{seed ^ 0x70b3ULL};
  std::string value(spec.value_bytes, 'q');
  for (std::uint64_t i = 0; now_ns() < deadline_ns; ++i) {
    const std::uint64_t it = spans.open("probe.iteration", 0, i);
    for (std::size_t s = 0; s < store.shard_count(); ++s) {
      const std::int64_t t = now_ns();
      store.run_at(static_cast<dvv::kv::ReplicaId>(s), [] {});
      out.hop_us.push_back(us_since(t));
      spans.add("net.run_at", t, now_ns(), it, i);
    }
    const std::string key = pick.next(spec);
    std::int64_t t = now_ns();
    const dvv::kv::StoreGetResult g = store.get_direct(key);
    out.get_direct_us.push_back(us_since(t));
    spans.add("kv.get_direct", t, now_ns(), it, i);
    if (!g.ok()) ++out.failed;
    dvv::server::Response resp;
    t = now_ns();
    const bool got = client.get(key, resp);
    out.get_socket_us.push_back(us_since(t));
    spans.add("server.get_round_trip", t, now_ns(), it, i);
    if (!got || resp.status != dvv::server::ResponseStatus::kOk) ++out.failed;

    const std::string probe_key = "probe-" + std::to_string(i % kProbeKeys);
    const dvv::kv::StoreGetResult pg = store.get_direct(probe_key);
    t = now_ns();
    const dvv::kv::StorePutResult pp =
        store.put_direct(probe_key, dvv::kv::client_actor(4000), pg.token, value);
    out.put_direct_us.push_back(us_since(t));
    spans.add("kv.put_direct", t, now_ns(), it, i);
    if (!pg.ok() || !pp.ok()) ++out.failed;
    dvv::server::Response sg;
    dvv::server::Response sp;
    const bool sgot = client.get(probe_key, sg);
    t = now_ns();
    const bool sput = client.put(probe_key, sg.token_bytes, value, 4001, sp);
    out.put_socket_us.push_back(us_since(t));
    spans.add("server.put_round_trip", t, now_ns(), it, i);
    if (!sgot || !sput || sg.status != dvv::server::ResponseStatus::kOk ||
        sp.status != dvv::server::ResponseStatus::kOk) {
      ++out.failed;
    }
    spans.close(it);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

double time_parse_ns(const std::vector<std::string>& payloads, SpanBuffer& spans,
                     std::uint64_t parent) {
  if (payloads.empty()) return 0.0;
  const std::uint64_t span = spans.open("server.parse_request", parent, 0);
  dvv::server::Request req;
  std::size_t calls = 0;
  std::size_t bytes = 0;
  const std::int64_t t = now_ns();
  while (calls < kMinTimedCalls) {
    for (const std::string& p : payloads) {
      if (dvv::server::parse_request(p, req) != dvv::server::RejectReason::kNone) {
        throw std::runtime_error("parse_request rejected a frame the run sent");
      }
      bytes += req.key.size();
      ++calls;
    }
  }
  const double ns = static_cast<double>(now_ns() - t) / static_cast<double>(calls);
  spans.close(span);
  if (bytes == 0) throw std::runtime_error("parsed requests carried no keys");
  return ns;
}

double time_token_decode_ns(const std::vector<std::string>& tokens,
                            SpanBuffer& spans, std::uint64_t parent) {
  if (tokens.empty()) return 0.0;
  std::vector<dvv::kv::CausalToken> wrapped;
  wrapped.reserve(tokens.size());
  for (const std::string& t : tokens) {
    wrapped.push_back(dvv::kv::CausalToken::from_bytes(t));
  }
  const std::uint64_t span = spans.open("kv.decode_token", parent, 0);
  std::size_t calls = 0;
  dvv::core::VersionVector vv;
  const std::int64_t t = now_ns();
  while (calls < kMinTimedCalls) {
    for (const dvv::kv::CausalToken& tok : wrapped) {
      if (!dvv::kv::decode_token(tok, dvv::kv::MechanismId::kDvv, vv)) {
        throw std::runtime_error("a token the store minted failed to decode");
      }
      ++calls;
    }
  }
  const double ns = static_cast<double>(now_ns() - t) / static_cast<double>(calls);
  spans.close(span);
  return ns;
}

CodecStoreProbe probe_codec_and_wal(const dvv::kv::Store& store,
                                    const WorkloadSpec& spec, std::uint64_t seed,
                                    SpanBuffer& spans, std::uint64_t parent) {
  constexpr std::size_t kSampleKeys = 4096;
  constexpr int kPasses = 4;
  KeyPicker pick{seed ^ 0xc0decULL};
  struct Sampled {
    std::string key;
    dvv::kv::ReplicaId coord;
    std::size_t siblings;
  };
  std::vector<Sampled> keys;
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < kSampleKeys; ++i) {
    std::string key = pick.next(spec);
    if (!seen.insert(key).second) continue;
    const auto coord = store.default_coordinator(key);
    if (!coord.has_value()) continue;
    const std::size_t siblings = store.key_stats(*coord, key).siblings;
    keys.push_back({std::move(key), *coord, siblings});
  }
  CodecStoreProbe out;
  std::vector<dvv::store::Record> records(keys.size());
  std::uint64_t span = spans.open("codec.encoded_state", parent, 0);
  std::int64_t t = now_ns();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      std::optional<std::string> state = store.encoded_state(keys[i].coord, keys[i].key);
      if (!state.has_value()) throw std::runtime_error("sampled key has no state");
      records[i].key = keys[i].key;
      records[i].state = std::move(*state);
    }
  }
  out.encode_ns = static_cast<double>(now_ns() - t) /
                  static_cast<double>(kPasses * std::max<std::size_t>(keys.size(), 1));
  spans.close(span);

  dvv::store::BackendConfig wal;
  wal.kind = dvv::store::BackendKind::kWal;
  wal.wal.flush_every = 1;
  const std::unique_ptr<dvv::store::StorageBackend> backend =
      dvv::store::make_backend(wal);
  std::size_t user_bytes = 0;
  span = spans.open("store.append", parent, 0);
  t = now_ns();
  for (std::size_t i = 0; i < records.size(); ++i) {
    backend->append(records[i]);
    user_bytes += keys[i].siblings * spec.value_bytes;
  }
  out.append_ns = static_cast<double>(now_ns() - t) /
                  static_cast<double>(std::max<std::size_t>(records.size(), 1));
  spans.close(span);
  out.log_bytes_per_user_byte =
      user_bytes == 0 ? 0.0
                      : static_cast<double>(backend->log_bytes()) /
                            static_cast<double>(user_bytes);
  return out;
}

TwinProbe probe_inline_twin(dvv::kv::StoreConfig config, const WorkloadSpec& spec,
                            const std::vector<std::vector<Req>>& streams,
                            const std::vector<std::size_t>& begin,
                            const std::vector<std::size_t>& end,
                            SpanBuffer& spans, std::uint64_t parent) {
  config.transport.kind = dvv::net::TransportKind::kInline;
  const auto spare = static_cast<dvv::kv::ReplicaId>(config.servers);
  config.capacity = config.servers + 1;
  const std::unique_ptr<dvv::kv::Store> twin = dvv::kv::make_store("dvv", config);
  if (twin == nullptr) throw std::runtime_error("cannot build the inline twin");
  const std::uint64_t replay = spans.open("twin.replay", parent, 0);
  std::string value;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    std::unordered_set<std::uint32_t> touched;
    for (std::size_t i = begin[c]; i < end[c]; ++i) touched.insert(streams[c][i].key);
    for (const std::uint32_t k : touched) {
      encode_value(value, spec.value_bytes, c, k, 0, 0);
      twin->put(key_name(c, k), dvv::kv::client_actor(kPreloadClient), {}, value);
    }
  }
  TwinProbe out;
  double put_us = 0.0;
  std::vector<std::string> tokens(kTokenRing);
  for (std::size_t c = 0; c < streams.size(); ++c) {
    for (std::size_t i = begin[c]; i < end[c]; ++i) {
      const Req& r = streams[c][i];
      const std::string key = key_name(c, r.key);
      if (r.op == Op::kGet) {
        tokens[i % kTokenRing] = twin->get(key).token.bytes();
        continue;
      }
      // A PUT whose GET precedes the replayed range goes blind.
      const bool has_token = r.token_back != 0 && i - r.token_back >= begin[c];
      const dvv::kv::CausalToken token = dvv::kv::CausalToken::from_bytes(
          has_token ? tokens[(i - r.token_back) % kTokenRing] : std::string());
      encode_value(value, spec.value_bytes, c, r.key, r.client,
                   static_cast<ValueId>(i + 1));
      const std::int64_t t = now_ns();
      const dvv::kv::StorePutResult res = twin->put(
          key, dvv::kv::client_actor(wire_client(c, r.client)), token, value);
      const std::int64_t z = now_ns();
      if (!res.ok()) throw std::runtime_error("inline twin PUT failed");
      put_us += static_cast<double>(z - t) / 1e3;
      ++out.puts;
      spans.add("kv.put_inline", t, z, replay, (static_cast<std::uint64_t>(c) << 32) | i);
    }
  }
  spans.close(replay);
  out.put_inline_us = out.puts == 0 ? 0.0 : put_us / static_cast<double>(out.puts);

  const std::uint64_t aae = spans.open("sync.anti_entropy_digest", parent, 0);
  const std::int64_t t = now_ns();
  const dvv::kv::DigestRepairReport report = twin->anti_entropy_digest();
  out.aae_pass_ms = static_cast<double>(now_ns() - t) / 1e6;
  spans.close(aae);
  out.keys_compared = report.stats.keys_compared;
  out.wire_bytes = report.stats.wire_bytes;

  for (const bool join : {true, false}) {
    const std::uint64_t span =
        spans.open(join ? "membership.join" : "membership.leave", parent, 0);
    const std::int64_t t0 = now_ns();
    if (!(join ? twin->join_node(spare) : twin->leave_node(spare))) {
      throw std::runtime_error("the inline twin refused a membership change");
    }
    out.transfers.merge(twin->complete_rebalance().totals);
    (join ? out.join_ms : out.leave_ms) = static_cast<double>(now_ns() - t0) / 1e6;
    spans.close(span);
  }
  return out;
}

}  // namespace perfbench
