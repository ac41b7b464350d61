// perfbench/src/workload.cpp — stream generation, values and the model.
#include "workload.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace perfbench {

namespace {

/// splitmix64: the benchmark's own generator, so streams do not depend
/// on the program's RNG or the standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint32_t below(std::uint64_t n) {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(theta) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::uint32_t draw(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Stream emitter: tracks which keys have a GET whose PUT is still to
/// come, so a key never has two read-modify-writes interleaved.
struct Emitter {
  std::vector<Req> out;
  std::vector<std::uint8_t> open;  ///< per key: an RMW awaits its PUT

  struct Pending {
    std::uint32_t key;
    std::uint8_t client;
    std::size_t get_index;
    std::size_t due;  ///< transaction number at which the PUT is emitted
  };
  std::deque<Pending> pending;

  explicit Emitter(std::size_t keys) : open(keys, 0) {}

  std::size_t get(std::uint32_t key, std::uint8_t client) {
    Req r;
    r.key = key;
    r.op = Op::kGet;
    r.client = client;
    out.push_back(r);
    return out.size() - 1;
  }
  void put(std::uint32_t key, std::uint8_t client, std::size_t get_index) {
    Req r;
    r.key = key;
    r.op = Op::kPut;
    r.client = client;
    const std::size_t back = out.size() - get_index;
    if (back >= kTokenRing) {
      throw std::logic_error("stream: GET->PUT distance exceeds the token ring");
    }
    r.token_back = static_cast<std::uint32_t>(back);
    out.push_back(r);
  }
  /// Emits every pending PUT due at or before transaction `now`.
  void release(std::size_t now) {
    while (!pending.empty() && pending.front().due <= now) {
      const Pending p = pending.front();
      pending.pop_front();
      put(p.key, p.client, p.get_index);
      open[p.key] = 0;
    }
  }
  /// A uniform key with no open RMW.
  std::uint32_t free_key(Rng& rng) {
    while (true) {
      const std::uint32_t k = rng.below(open.size());
      if (open[k] == 0) return k;
    }
  }
};

std::vector<Req> generate_rmw(const WorkloadSpec& spec, Rng& rng) {
  Emitter b(spec.keys_per_conn);
  b.out.reserve(spec.stream_requests + 64);
  std::size_t txn = 0;
  Zipf zipf(spec.kind == Kind::kReadMostly ? spec.keys_per_conn : 1,
            spec.zipf_theta);
  // read_mostly: Zipf ranks map to keys through a permutation, so the
  // hot keys spread over coordinators and shards.  The permutation is
  // the same for every seed: which keys are hot, and so how the hot
  // load splits between the shards, is part of the workload; the seed
  // draws the op sequence.
  std::vector<std::uint32_t> rank_to_key(spec.keys_per_conn);
  for (std::uint32_t i = 0; i < rank_to_key.size(); ++i) rank_to_key[i] = i;
  Rng fixed(0x407ULL);
  for (std::size_t i = rank_to_key.size(); i > 1; --i) {
    std::swap(rank_to_key[i - 1], rank_to_key[fixed.below(i)]);
  }
  while (b.out.size() < spec.stream_requests) {
    const auto client = static_cast<std::uint8_t>(rng.below(spec.logical_clients));
    const bool plain_read = spec.kind == Kind::kReadMostly &&
                            rng.unit() < spec.read_only_frac;
    if (plain_read) {
      b.get(rank_to_key[zipf.draw(rng)], client);
    } else {
      const std::uint32_t key = b.free_key(rng);
      b.open[key] = 1;
      const std::size_t g = b.get(key, client);
      b.pending.push_back({key, client, g, txn + spec.put_lag});
    }
    ++txn;
    b.release(txn);
  }
  b.out.resize(spec.stream_requests);
  return std::move(b.out);
}

/// sibling_storm: keys visited in seeded passes; a visit is one GET per
/// logical client, and the visit's PUTs (each carrying its client's
/// now-stale token) follow one visit later.
std::vector<Req> generate_storm(const WorkloadSpec& spec, Rng& rng) {
  Emitter b(spec.keys_per_conn);
  b.out.reserve(spec.stream_requests + 2 * spec.logical_clients);
  std::vector<std::uint32_t> order(spec.keys_per_conn);
  std::size_t visit = 0;
  while (b.out.size() < spec.stream_requests) {
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (b.open[order[i]] != 0) {
        // Only the previous visit's key is open, so this happens only
        // at a pass's first key: take the second instead.
        std::swap(order[i], order[i + 1]);
      }
      const std::uint32_t key = order[i];
      b.open[key] = 1;
      for (std::size_t c = 0; c < spec.logical_clients; ++c) {
        const auto client = static_cast<std::uint8_t>(c);
        const std::size_t g = b.get(key, client);
        b.pending.push_back({key, client, g, visit + 1});
      }
      b.release(visit);  // the previous visit's PUTs
      ++visit;
    }
  }
  b.out.resize(spec.stream_requests);
  return std::move(b.out);
}

}  // namespace

WorkloadSpec make_spec(std::string_view name, bool short_mode, double seconds) {
  WorkloadSpec s;
  s.name = std::string(name);
  if (name == "rmw_uniform" || name == "ring_churn") {
    s.kind = Kind::kRmw;
    s.keys_per_conn = 8192;
    s.churn = name == "ring_churn";
  } else if (name == "read_mostly") {
    s.kind = Kind::kReadMostly;
    s.keys_per_conn = short_mode ? 20'000 : 250'000;
    s.read_only_frac = 0.95;
    s.zipf_theta = 0.99;
  } else if (name == "sibling_storm") {
    s.kind = Kind::kStorm;
    s.keys_per_conn = 256;
    s.wal = true;
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  if (short_mode) {
    s.warmup_requests = 500;
    s.prefix_gets = 1000;
  }
  if (s.kind == Kind::kStorm) {
    // Two full passes over the hot keys, so every timed GET sees the
    // previous visit's concurrent PUTs rather than the preload.
    s.warmup_requests = 2 * s.keys_per_conn * 2 * s.logical_clients;
  }
  // Headroom well past what one connection completes in `seconds`; a
  // run that exhausts its stream ends its window early and says so.
  const double per_second = 300'000.0;
  s.stream_requests = s.warmup_requests +
                      static_cast<std::size_t>(std::max(2.0, seconds) * per_second);
  return s;
}

std::vector<Req> generate_stream(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::size_t conn) {
  Rng rng(seed * 0x100000001b3ULL + 0x51ed + conn * 0x9e3779b97f4a7c15ULL);
  return spec.kind == Kind::kStorm ? generate_storm(spec, rng)
                                   : generate_rmw(spec, rng);
}

std::string key_name(std::size_t conn, std::uint32_t key) {
  return "k" + std::to_string(conn) + "-" + std::to_string(key);
}

namespace {

char filler_at(std::size_t pos) {
  return static_cast<char>('a' + pos % 26);
}

template <typename T>
bool parse_uint(std::string_view& in, char stop, T& out) {
  const auto [ptr, ec] = std::from_chars(in.data(), in.data() + in.size(), out);
  if (ec != std::errc() || ptr == in.data() + in.size() || *ptr != stop) {
    return false;
  }
  in.remove_prefix(static_cast<std::size_t>(ptr - in.data()) + 1);
  return true;
}

}  // namespace

void encode_value(std::string& out, std::size_t value_bytes, std::size_t conn,
                  std::uint32_t key, std::uint8_t client, ValueId id) {
  out.clear();
  if (id == 0) {
    out += 'p';
    out += std::to_string(conn);
    out += '.';
    out += std::to_string(key);
  } else {
    out += 'v';
    out += std::to_string(conn);
    out += '.';
    out += std::to_string(client);
    out += '.';
    out += std::to_string(id - 1);
  }
  out += '|';
  for (std::size_t pos = out.size(); pos < value_bytes; ++pos) {
    out += filler_at(pos);
  }
}

bool decode_value(std::string_view bytes, std::size_t value_bytes,
                  std::size_t conn, std::uint32_t key,
                  const std::vector<Req>& stream, ValueId& id) {
  if (bytes.size() != value_bytes || bytes.empty()) return false;
  std::string_view in = bytes.substr(1);
  std::size_t got_conn = 0;
  if (!parse_uint(in, '.', got_conn) || got_conn != conn) return false;
  if (bytes[0] == 'p') {
    std::uint32_t got_key = 0;
    if (!parse_uint(in, '|', got_key) || got_key != key) return false;
    id = 0;
  } else if (bytes[0] == 'v') {
    unsigned client = 0;
    std::uint32_t seq = 0;
    if (!parse_uint(in, '.', client) || !parse_uint(in, '|', seq)) return false;
    if (seq >= stream.size()) return false;
    const Req& r = stream[seq];
    if (r.op != Op::kPut || r.key != key || r.client != client) return false;
    id = seq + 1;
  } else {
    return false;
  }
  for (std::size_t pos = bytes.size() - in.size(); pos < bytes.size(); ++pos) {
    if (bytes[pos] != filler_at(pos)) return false;
  }
  return true;
}

void Model::put(std::uint32_t key, ValueId id,
                const std::vector<ValueId>* seen) {
  std::vector<ValueId>& s = siblings_[key];
  if (seen != nullptr) {
    std::vector<ValueId> kept;
    kept.reserve(s.size() + 1);
    std::set_difference(s.begin(), s.end(), seen->begin(), seen->end(),
                        std::back_inserter(kept));
    s = std::move(kept);
  }
  s.insert(std::upper_bound(s.begin(), s.end(), id), id);
}

std::size_t Model::live_values() const {
  std::size_t n = 0;
  for (const auto& s : siblings_) n += s.size();
  return n;
}

}  // namespace perfbench
