// perfbench — the repository benchmark.
//
// Hosts server::Server in-process over a kv::Store (the dvv mechanism,
// 8 replicas, N = 3, 2 shards, one spare replica slot for membership
// changes) and drives it over loopback TCP from a closed-loop
// generator: two client connections, one thread each, 32 requests in
// flight per connection, plus an admin connection.  Every reply is
// checked against the reply model (workload.hpp).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--short] [--spans PATH] [--dump-stream PATH]
//             [--drop-model-write I]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// reference half, then a traced half with the obs registry on, spans
// recorded and per-layer probes running, and prints the per-layer
// metrics.  The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
//
// --short scales the workload down for the benchmark's own tests;
// --dump-stream writes the generated op streams and exits;
// --drop-model-write makes the model forget connection 0's PUT at that
// stream index, so the model check must trip.
//
// Exit codes: 0 correct, 1 model check or steady-state assertion
// failed, 2 usage error or unoptimised build, 3 runtime error.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "connection.hpp"
#include "host.hpp"
#include "kv/store.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kServers = 8;
constexpr std::size_t kReplication = 3;
constexpr std::size_t kShards = 2;
constexpr dvv::kv::ReplicaId kSpare = kServers;  // the one provisioned slot
constexpr std::size_t kSetups = 3;               // setup_s is their median
constexpr std::size_t kTwinOpsPerConn = 20'000;
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// A thread whose exception join() rethrows on the joining thread; the
/// destructor joins (never detaches), so no path leaves one running.
class Worker {
 public:
  template <typename F>
  explicit Worker(F fn)
      : thread_([this, fn = std::move(fn)]() mutable {
          try {
            fn();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~Worker() {
    if (thread_.joinable()) thread_.join();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
  std::thread thread_;  // last: starts once error_ exists
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool short_mode = false;
  std::string spans_path;
  std::string dump_stream;
  std::size_t drop_put = kNoDrop;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--short] [--spans PATH] "
               "[--dump-stream PATH] [--drop-model-write I]\n",
               why.c_str());
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T v{};
  const auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || p != text.data() + text.size()) {
    usage("bad value for " + flag + ": " + text);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      a.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, v);
      have_seconds = true;
    } else if (flag == "--trace") {
      a.trace = parse_number<int>(flag, v);
      have_trace = true;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else if (flag == "--dump-stream") {
      a.dump_stream = v;
    } else if (flag == "--drop-model-write") {
      a.drop_put = parse_number<std::size_t>(flag, v);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.dump_stream.empty() && (!have_seconds || !have_trace)) {
    usage("--seconds and --trace are required");
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0) || a.seconds > 600.0) usage("--seconds out of range");
  return a;
}

// ---- metrics output ------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, p) : "null";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile in µs of kOk latencies (ns) plus `failed`
/// requests, which count as missing every limit: they rank above every
/// reply and read as `missing_us`, the whole window.
double percentile_us(std::vector<std::uint32_t> ns, std::uint64_t failed, double q,
                     double missing_us) {
  const std::size_t n = ns.size() + failed;
  if (n == 0) return std::nan("");
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  if (rank >= ns.size()) return missing_us;
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(rank), ns.end());
  return static_cast<double>(ns[rank]) / 1e3;
}

// ---- the testbed ---------------------------------------------------------

dvv::kv::StoreConfig store_config(const WorkloadSpec& spec) {
  dvv::kv::StoreConfig c;
  c.mechanism = "dvv";
  c.servers = kServers;
  c.replication = kReplication;
  c.capacity = spec.churn ? kServers + 1 : 0;
  c.transport.kind = dvv::net::TransportKind::kThreaded;
  c.transport.threaded.shards = kShards;
  c.storage.kind = spec.wal ? dvv::store::BackendKind::kWal
                            : dvv::store::BackendKind::kMem;
  c.storage.wal.flush_every = 1;
  return c;
}

/// One set-up: the store, the server hosting it, and the connections.
/// Members are destroyed in reverse order: clients close, the server
/// stops (joining its threads), then the store goes.
struct Testbed {
  std::unique_ptr<dvv::kv::Store> store;
  std::unique_ptr<dvv::server::Server> server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::unique_ptr<dvv::server::Client> admin;  ///< ring_churn only
};

/// Writes every key's preload value with blind PUTs, batched into
/// closures on each coordinator's shard (one control thread per shard),
/// then waits for replication to settle.
void preload(dvv::kv::Store& store, const WorkloadSpec& spec) {
  constexpr std::size_t kBatch = 1024;
  struct Item {
    std::string key;
    std::size_t conn;
    std::uint32_t index;
  };
  std::vector<std::vector<Item>> by_shard(store.shard_count());
  for (std::size_t c = 0; c < spec.connections; ++c) {
    for (std::uint32_t k = 0; k < spec.keys_per_conn; ++k) {
      std::string key = key_name(c, k);
      const auto coord = store.default_coordinator(key);
      if (!coord.has_value()) throw std::runtime_error("preload: no coordinator");
      by_shard[store.shard_of(*coord)].push_back({std::move(key), c, k});
    }
  }
  std::vector<std::size_t> failed(by_shard.size(), 0);
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    workers.push_back(std::make_unique<Worker>([&, s] {
      const std::vector<Item>& items = by_shard[s];
      std::string value;
      for (std::size_t b = 0; b < items.size(); b += kBatch) {
        store.run_at(static_cast<dvv::kv::ReplicaId>(s), [&] {
          for (std::size_t i = b; i < std::min(items.size(), b + kBatch); ++i) {
            encode_value(value, spec.value_bytes, items[i].conn, items[i].index, 0, 0);
            if (!store.put_direct_local(items[i].key,
                                        dvv::kv::client_actor(kPreloadClient), {},
                                        value)
                     .ok()) {
              ++failed[s];
            }
          }
        });
      }
    }));
  }
  for (auto& w : workers) w->join();
  store.pump();
  for (const std::size_t f : failed) {
    if (f != 0) throw std::runtime_error("preload: a blind PUT failed");
  }
}

/// Runs every connection on its own thread until `deadline_ns` (or
/// stream index `end`).  False when a connection broke.
bool run_connections(Testbed& bed, std::size_t end, std::int64_t deadline_ns,
                     bool record, std::vector<SpanBuffer>* spans = nullptr,
                     std::vector<TraceSamples>* samples = nullptr) {
  std::vector<char> ok(bed.conns.size(), 0);
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t c = 0; c < bed.conns.size(); ++c) {
    workers.push_back(std::make_unique<Worker>([&, c] {
      ok[c] = bed.conns[c]->run(end, deadline_ns, record,
                                spans == nullptr ? nullptr : &(*spans)[c],
                                samples == nullptr ? nullptr : &(*samples)[c])
                  ? 1
                  : 0;
    }));
  }
  for (auto& w : workers) w->join();
  if (std::find(ok.begin(), ok.end(), 0) != ok.end()) {
    std::fprintf(stderr, "perfbench: a client connection broke\n");
    return false;
  }
  return true;
}

double setup(Testbed& bed, const WorkloadSpec& spec,
             const std::vector<std::vector<Req>>& streams, std::size_t drop_put) {
  const std::int64_t t0 = now_ns();
  bed.store = dvv::kv::make_store("dvv", store_config(spec));
  if (bed.store == nullptr) throw std::runtime_error("make_store failed");
  bed.server = std::make_unique<dvv::server::Server>(*bed.store,
                                                     dvv::server::ServerConfig{});
  bed.server->start();
  preload(*bed.store, spec);
  for (std::size_t c = 0; c < spec.connections; ++c) {
    bed.conns.push_back(std::make_unique<Connection>(
        spec, c, streams[c], bed.server->port(), c == 0 ? drop_put : kNoDrop));
  }
  if (spec.churn) bed.admin = std::make_unique<dvv::server::Client>(bed.server->port());
  if (!run_connections(bed, spec.warmup_requests, kNever, /*record=*/false)) {
    throw std::runtime_error("a connection broke during warm-up");
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// ---- membership ------------------------------------------------------------

struct ChurnLog {
  std::size_t cycles = 0;
  std::uint64_t failed = 0;
};

/// JOIN spare then LEAVE spare over the admin connection; at least one
/// cycle, then more until `deadline_ns`.  Spans when given.
void churn(Testbed& bed, std::int64_t deadline_ns, SpanBuffer* spans, ChurnLog& log) {
  for (std::size_t i = 0; i == 0 || now_ns() < deadline_ns; ++i) {
    const std::uint64_t cycle = spans == nullptr ? 0 : spans->open("admin.cycle", 0, i);
    dvv::server::Response r;
    for (const bool join : {true, false}) {
      const std::int64_t t = now_ns();
      const bool ok = join ? bed.admin->join(kSpare, r) : bed.admin->leave(kSpare, r);
      const std::int64_t z = now_ns();
      if (!ok || r.status != dvv::server::ResponseStatus::kOk) ++log.failed;
      if (spans != nullptr) {
        spans->add(join ? "admin.join" : "admin.leave", t, z, cycle, i);
      }
    }
    if (spans != nullptr) spans->close(cycle);
    ++log.cycles;
  }
}

// ---- aggregation -------------------------------------------------------------

struct Totals {
  std::vector<std::uint32_t> get_ns, put_ns;
  std::uint64_t failed_get = 0, failed_put = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t prefix_gets = 0, prefix_values = 0, prefix_token_bytes = 0;
  std::uint64_t max_siblings = 0;
  double elapsed_s = 0.0;
  bool exhausted = false;

  [[nodiscard]] double ops_per_s() const {
    return elapsed_s > 0.0
               ? static_cast<double>(get_ns.size() + put_ns.size()) / elapsed_s
               : 0.0;
  }
};

Totals collect(Testbed& bed) {
  Totals t;
  std::int64_t first = kNever;
  std::int64_t last = 0;
  for (auto& conn : bed.conns) {
    ConnStats s = conn->take_stats();
    t.get_ns.insert(t.get_ns.end(), s.get_ns.begin(), s.get_ns.end());
    t.put_ns.insert(t.put_ns.end(), s.put_ns.begin(), s.put_ns.end());
    t.failed_get += s.failed_get;
    t.failed_put += s.failed_put;
    t.attempted += s.attempted;
    t.prefix_gets += s.prefix_gets;
    t.prefix_values += s.prefix_values;
    t.prefix_token_bytes += s.prefix_token_bytes;
    t.max_siblings = std::max(t.max_siblings, s.max_siblings);
    t.exhausted = t.exhausted || s.stream_exhausted;
    if (s.first_send_ns != 0) first = std::min(first, s.first_send_ns);
    last = std::max(last, s.last_reply_ns);
  }
  t.failed = t.failed_get + t.failed_put;
  t.elapsed_s = last > first ? static_cast<double>(last - first) / 1e9 : 0.0;
  if (t.exhausted) {
    std::fprintf(stderr, "perfbench: a stream ran out before the window ended\n");
  }
  return t;
}

/// Checks the model and the steady-state rules; prints what failed.
bool verify(const Testbed& bed, const WorkloadSpec& spec, const Totals& t) {
  bool ok = true;
  for (const auto& conn : bed.conns) {
    for (const std::string& note : conn->mismatch_notes()) {
      std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    }
    if (conn->mismatches() != 0) {
      std::fprintf(stderr, "perfbench: %llu model mismatches on one connection\n",
                   static_cast<unsigned long long>(conn->mismatches()));
      ok = false;
    }
  }
  if (spec.kind != Kind::kStorm && !spec.churn && t.prefix_gets > 0 &&
      t.prefix_values != t.prefix_gets) {
    std::fprintf(stderr, "perfbench: siblings_per_get is not exactly 1 on %s\n",
                 spec.name.c_str());
    ok = false;
  }
  const std::uint64_t cap = spec.kind == Kind::kStorm ? spec.logical_clients : 1;
  if (!spec.churn && t.max_siblings > cap) {
    std::fprintf(stderr, "perfbench: a GET returned %llu siblings (cap %llu)\n",
                 static_cast<unsigned long long>(t.max_siblings),
                 static_cast<unsigned long long>(cap));
    ok = false;
  }
  return ok;
}

std::string params_json(const Args& a, const WorkloadSpec& s) {
  return "{\"workload\": \"" + s.name + "\", \"seed\": " + std::to_string(a.seed) +
         ", \"seconds\": " + number(a.seconds) + ", \"trace\": " +
         std::to_string(a.trace) + ", \"short\": " + (a.short_mode ? "true" : "false") +
         ", \"mechanism\": \"dvv\", \"servers\": " + std::to_string(kServers) +
         ", \"replication\": " + std::to_string(kReplication) +
         ", \"capacity\": " + std::to_string(s.churn ? kServers + 1 : kServers) +
         ", \"shards\": " + std::to_string(kShards) +
         ", \"connections\": " + std::to_string(s.connections) +
         ", \"window\": " + std::to_string(s.window) +
         ", \"keys_per_conn\": " + std::to_string(s.keys_per_conn) +
         ", \"value_bytes\": " + std::to_string(s.value_bytes) +
         ", \"logical_clients\": " + std::to_string(s.logical_clients) +
         ", \"read_only_frac\": " + number(s.read_only_frac) +
         ", \"zipf_theta\": " + number(s.zipf_theta) +
         ", \"put_lag\": " + std::to_string(s.put_lag) +
         ", \"storage\": \"" + (s.wal ? "wal(flush_every=1)" : "mem") +
         "\", \"churn\": " + (s.churn ? "true" : "false") +
         ", \"warmup_requests\": " + std::to_string(s.warmup_requests) +
         ", \"prefix_gets\": " + std::to_string(s.prefix_gets) +
         ", \"stream_requests\": " + std::to_string(s.stream_requests) + "}";
}

// ---- the two runs -----------------------------------------------------------

int run_end_to_end(const Args& args, const WorkloadSpec& spec,
                   const std::vector<std::vector<Req>>& streams) {
  dvv::obs::set_metrics_enabled(false);  // end-to-end numbers are untraced
  std::vector<double> setup_s;
  std::vector<double> setup_rss_mib;
  std::unique_ptr<Testbed> bed;
  const std::size_t setups = args.short_mode ? 1 : kSetups;
  for (std::size_t i = 0; i < setups; ++i) {
    bed.reset();
    malloc_trim(0);  // hand the torn-down store's pages back before rebuilding
    const double before = rss_mib();
    bed = std::make_unique<Testbed>();
    setup_s.push_back(setup(*bed, spec, streams, args.drop_put));
    setup_rss_mib.push_back(rss_mib() - before);
  }

  ChurnLog churn_log;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::optional<Worker> admin;
  if (spec.churn) admin.emplace([&] { churn(*bed, deadline, nullptr, churn_log); });
  const bool connected =
      run_connections(*bed, std::numeric_limits<std::size_t>::max(), deadline, true);
  if (admin) admin->join();
  Totals t = collect(*bed);

  bed->store->pump();
  const dvv::kv::Footprint fp = bed->store->footprint();
  std::size_t live_values = 0;
  for (const auto& conn : bed->conns) live_values += conn->model().live_values();
  const bool correct = verify(*bed, spec, t) && connected && churn_log.failed == 0;
  bed.reset();

  const double window_us = args.seconds * 1e6;
  std::printf("samples: {\"get\": %zu, \"put\": %zu, \"failed\": %llu, "
              "\"setups\": %zu, \"churn_cycles\": %zu, \"prefix_gets\": %llu}\n",
              t.get_ns.size(), t.put_ns.size(),
              static_cast<unsigned long long>(t.failed), setup_s.size(),
              churn_log.cycles,
              static_cast<unsigned long long>(t.prefix_gets));
  const double gets = static_cast<double>(std::max<std::uint64_t>(t.prefix_gets, 1));
  std::vector<Metric> m = {
      {"ops_per_s", t.ops_per_s(), "ops/s"},
      {"get_p50_us", percentile_us(t.get_ns, t.failed_get, 0.50, window_us), "us"},
      {"get_p99_us", percentile_us(t.get_ns, t.failed_get, 0.99, window_us), "us"},
      {"put_p50_us", percentile_us(t.put_ns, t.failed_put, 0.50, window_us), "us"},
      {"put_p99_us", percentile_us(t.put_ns, t.failed_put, 0.99, window_us), "us"},
      {"ok_frac",
       1.0 - static_cast<double>(t.failed) /
                 static_cast<double>(std::max<std::uint64_t>(t.attempted, 1)),
       "ratio"},
      {"siblings_per_get", static_cast<double>(t.prefix_values) / gets, "values"},
      {"token_bytes_per_get", static_cast<double>(t.prefix_token_bytes) / gets, "B"},
      {"stored_bytes_per_user_byte",
       static_cast<double>(fp.total_bytes) /
           static_cast<double>(std::max<std::size_t>(live_values * spec.value_bytes, 1)),
       "ratio"},
      {"rss_mb", median(setup_rss_mib), "MiB"},
      {"setup_s", median(setup_s), "s"},
  };
  print_result(correct, t.attempted, t.failed, m);
  return correct ? 0 : 1;
}

std::uint64_t counter(const char* name) { return dvv::obs::registry().counter_value(name); }

struct Counters {
  std::uint64_t bytes_read, bytes_written, req_get, req_put, reads_paused;
  std::uint64_t msgs_sent, wire_bytes, encode_allocs;
  std::uint64_t unavailable, bad_token, wal_appends, wal_compactions;

  static Counters read() {
    return {counter("server.bytes_read"),      counter("server.bytes_written"),
            counter("server.requests.get"),    counter("server.requests.put"),
            counter("server.reads_paused"),    counter("net.msgs_sent"),
            counter("net.wire_bytes_sent"),    counter("net.alloc.encode_buffers"),
            counter("store.status_unavailable"), counter("store.status_bad_token"),
            counter("wal.appends"),            counter("wal.compactions")};
  }
};

double ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0) {
  return den == 0 ? 0.0 : scale * static_cast<double>(num) / static_cast<double>(den);
}

int run_traced(const Args& args, const WorkloadSpec& spec,
               const std::vector<std::vector<Req>>& streams) {
  auto bed = std::make_unique<Testbed>();
  const double setup_once = setup(*bed, spec, streams, args.drop_put);
  const std::int64_t half = static_cast<std::int64_t>(args.seconds * 1e9 / 2.0);

  // Untraced reference half (with the same churn as the traced half).
  dvv::obs::set_metrics_enabled(false);
  ChurnLog ref_churn;
  bool connected = true;
  {
    const std::int64_t ref_deadline = now_ns() + half;
    std::optional<Worker> admin;
    if (spec.churn) {
      admin.emplace([&] { churn(*bed, ref_deadline, nullptr, ref_churn); });
    }
    connected = run_connections(*bed, std::numeric_limits<std::size_t>::max(),
                                ref_deadline, true);
    if (admin) admin->join();
  }
  Totals ref = collect(*bed);

  // Traced half: obs registry on, spans, samples, live probes, churn.
  bed->store->pump();
  dvv::obs::set_metrics_enabled(true);
  const Counters c0 = Counters::read();
  std::vector<SpanBuffer> conn_spans;
  for (std::size_t c = 0; c < spec.connections; ++c) conn_spans.emplace_back(c + 1);
  SpanBuffer main_spans(10);
  SpanBuffer admin_spans(11);
  std::vector<TraceSamples> samples(spec.connections);
  std::vector<std::size_t> traced_begin;
  for (const auto& conn : bed->conns) traced_begin.push_back(conn->cursor());

  const std::int64_t deadline = now_ns() + half;
  ChurnLog churn_log;
  LiveProbes probes;
  std::optional<Worker> admin;
  if (spec.churn) {
    admin.emplace([&] { churn(*bed, deadline, &admin_spans, churn_log); });
  }
  Worker load([&] {
    connected = run_connections(*bed, std::numeric_limits<std::size_t>::max(),
                                deadline, true, &conn_spans, &samples) &&
                connected;
  });
  run_live_probes(*bed->store, bed->server->port(), spec, args.seed, deadline,
                  main_spans, probes);
  load.join();
  if (admin) admin->join();
  Totals traced = collect(*bed);
  bed->store->pump();
  const Counters c1 = Counters::read();
  std::vector<std::size_t> traced_end;
  for (const auto& conn : bed->conns) traced_end.push_back(conn->cursor());

  // After the window, on the quiescent store.
  const std::uint64_t post = main_spans.open("post_window", 0, 0);
  const dvv::kv::Footprint fp = bed->store->footprint();
  const CodecStoreProbe codec = probe_codec_and_wal(*bed->store, spec, args.seed,
                                                    main_spans, post);
  const bool correct = verify(*bed, spec, traced) && connected &&
                       ref_churn.failed == 0 && churn_log.failed == 0 &&
                       probes.failed == 0;
  bed.reset();

  std::vector<std::size_t> twin_end;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    twin_end.push_back(std::min(traced_end[c], traced_begin[c] + kTwinOpsPerConn));
  }
  const TwinProbe twin = probe_inline_twin(store_config(spec), spec, streams,
                                           traced_begin, twin_end, main_spans, post);
  std::vector<std::string> payloads;
  std::vector<std::string> tokens;
  for (TraceSamples& s : samples) {
    payloads.insert(payloads.end(), s.request_payloads.begin(), s.request_payloads.end());
    tokens.insert(tokens.end(), s.tokens.begin(), s.tokens.end());
  }
  const double parse_ns = time_parse_ns(payloads, main_spans, post);
  const double decode_ns = time_token_decode_ns(tokens, main_spans, post);
  main_spans.close(post);

  std::vector<const SpanBuffer*> buffers;
  for (const SpanBuffer& b : conn_spans) buffers.push_back(&b);
  buffers.push_back(&main_spans);
  buffers.push_back(&admin_spans);
  const std::vector<SelfTime> self = self_times(buffers);
  const std::vector<SelfTime> layers = by_layer(self);
  std::size_t span_count = 0;
  for (const SpanBuffer* b : buffers) span_count += b->spans().size();
  if (!args.spans_path.empty()) {
    std::vector<SelfTime> summary = self;
    for (SelfTime t : layers) {
      t.name = "layer:" + t.name;
      summary.push_back(std::move(t));
    }
    if (!write_spans(args.spans_path, buffers, summary)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
      return 3;
    }
    std::printf("spans: %zu written to %s\n", span_count, args.spans_path.c_str());
  }
  std::printf("self time per span name, then per layer (ms total / ms self / spans;"
              " client request spans are 1 in 8):\n");
  for (const std::vector<SelfTime>* table : {&self, &layers}) {
    for (const SelfTime& s : *table) {
      std::printf("  %-28s %12.3f %12.3f %10llu\n", s.name.c_str(), s.total_ns / 1e6,
                  s.self_ns / 1e6, static_cast<unsigned long long>(s.spans));
    }
  }

  const std::uint64_t requests = (c1.req_get - c0.req_get) + (c1.req_put - c0.req_put);
  const std::uint64_t puts = c1.req_put - c0.req_put;
  const std::uint64_t msgs = c1.msgs_sent - c0.msgs_sent;
  // Medians: a probe stuck behind a membership world-stop would own a mean.
  const double socket_us = (median(probes.get_socket_us) + median(probes.put_socket_us)) / 2.0;
  const double direct_us = (median(probes.get_direct_us) + median(probes.put_direct_us)) / 2.0;
  const double keys = static_cast<double>(std::max<std::size_t>(fp.keys, 1));

  std::printf("samples: {\"reference_ops\": %zu, \"traced_ops\": %zu, "
              "\"probe_iterations\": %zu, \"twin_puts\": %llu, "
              "\"parsed_frames\": %zu, \"tokens\": %zu, \"churn_cycles\": %zu, "
              "\"setup_s\": %s}\n",
              ref.get_ns.size() + ref.put_ns.size(),
              traced.get_ns.size() + traced.put_ns.size(), probes.hop_us.size() / 2,
              static_cast<unsigned long long>(twin.puts), payloads.size(),
              tokens.size(), churn_log.cycles, number(setup_once).c_str());
  std::vector<Metric> m = {
      {"server.parse_ns", parse_ns, "ns"},
      {"server.overhead_us", socket_us - direct_us, "us"},
      {"server.bytes_per_op",
       ratio((c1.bytes_read - c0.bytes_read) + (c1.bytes_written - c0.bytes_written), requests),
       "B"},
      {"server.reads_paused", static_cast<double>(c1.reads_paused - c0.reads_paused), "count"},
      {"net.hop_us", median(probes.hop_us), "us"},
      {"net.msgs_per_put", ratio(msgs, puts), "msgs"},
      {"net.wire_bytes_per_put", ratio(c1.wire_bytes - c0.wire_bytes, puts), "B"},
      {"net.encode_allocs_per_msg", ratio(c1.encode_allocs - c0.encode_allocs, msgs),
       "allocs"},
      {"kv.get_direct_us", median(probes.get_direct_us), "us"},
      {"kv.put_direct_us", median(probes.put_direct_us), "us"},
      {"kv.put_inline_us", twin.put_inline_us, "us"},
      {"kv.token_decode_ns", decode_ns, "ns"},
      {"kv.status_not_ok",
       static_cast<double>((c1.unavailable - c0.unavailable) + (c1.bad_token - c0.bad_token)),
       "count"},
      {"core.siblings_per_key", static_cast<double>(fp.siblings) / keys, "values"},
      {"core.clock_entries_per_key", static_cast<double>(fp.clock_entries) / keys, "entries"},
      {"core.metadata_bytes_per_key", static_cast<double>(fp.metadata_bytes) / keys, "B"},
      {"codec.state_encode_ns", codec.encode_ns, "ns"},
      {"store.append_ns", codec.append_ns, "ns"},
      {"store.log_bytes_per_user_byte", codec.log_bytes_per_user_byte, "ratio"},
      {"store.wal_appends_per_put", ratio(c1.wal_appends - c0.wal_appends, puts), "appends"},
      {"store.compactions_per_kput", ratio(c1.wal_compactions - c0.wal_compactions, puts, 1000.0),
       "count"},
      {"sync.aae_pass_ms", twin.aae_pass_ms, "ms"},
      {"sync.keys_compared", static_cast<double>(twin.keys_compared), "keys"},
      {"sync.wire_bytes", static_cast<double>(twin.wire_bytes), "B"},
      {"membership.join_ms", twin.join_ms, "ms"},
      {"membership.leave_ms", twin.leave_ms, "ms"},
      {"membership.keys_shipped", static_cast<double>(twin.transfers.keys_shipped) / 2.0,
       "keys"},
      {"membership.wire_bytes", static_cast<double>(twin.transfers.wire_bytes) / 2.0, "B"},
      {"membership.nodes_exchanged",
       static_cast<double>(twin.transfers.nodes_exchanged) / 2.0, "nodes"},
      {"obs.trace_overhead_frac", 1.0 - traced.ops_per_s() / ref.ops_per_s(), "ratio"},
  };
  print_result(correct, ref.attempted + traced.attempted, ref.failed + traced.failed, m);
  return correct ? 0 : 1;
}

int run(const Args& args) {
  if (!optimised_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build\n");
    return 2;
  }
  const WorkloadSpec spec = make_spec(args.workload, args.short_mode, args.seconds);
  std::vector<std::vector<Req>> streams(spec.connections);
  {
    std::vector<std::unique_ptr<Worker>> workers;
    for (std::size_t c = 0; c < spec.connections; ++c) {
      workers.push_back(std::make_unique<Worker>(
          [&, c] { streams[c] = generate_stream(spec, args.seed, c); }));
    }
    for (auto& w : workers) w->join();
  }
  if (!args.dump_stream.empty()) {
    std::FILE* f = std::fopen(args.dump_stream.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("cannot write " + args.dump_stream);
    for (const auto& s : streams) {
      std::fwrite(s.data(), sizeof(Req), s.size(), f);
      std::printf("stream: %zu requests\n", s.size());
    }
    std::fclose(f);
    return 0;
  }
  std::printf("fingerprint: %s\n", host_fingerprint_json().c_str());
  std::printf("params: %s\n", params_json(args, spec).c_str());
  std::fflush(stdout);
  if (args.drop_put != kNoDrop &&
      (args.drop_put >= streams[0].size() || streams[0][args.drop_put].op != Op::kPut)) {
    usage("--drop-model-write must name a PUT of connection 0");
  }
  return args.trace == 0 ? run_end_to_end(args, spec, streams)
                         : run_traced(args, spec, streams);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The in-process server and the clients write to sockets a peer may
  // have closed; that must be an error return, not a fatal signal.
  std::signal(SIGPIPE, SIG_IGN);
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
