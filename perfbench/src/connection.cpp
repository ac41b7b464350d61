// perfbench/src/connection.cpp — the closed-loop connection generator.
#include "connection.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iterator>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kSampleCap = 20'000;
/// Client request spans are kept for every kSpanEvery-th stream index,
/// which bounds the span file on the fastest workloads.
constexpr std::size_t kSpanEvery = 8;

std::size_t ring_size(std::size_t window) {
  std::size_t n = 1;
  while (n < window) n <<= 1;
  return n;
}

}  // namespace

Connection::Connection(const WorkloadSpec& spec, std::size_t conn,
                       const std::vector<Req>& stream, std::uint16_t port,
                       std::size_t drop_put)
    : spec_(spec),
      conn_(conn),
      stream_(stream),
      drop_put_(drop_put),
      model_(spec.keys_per_conn),
      reads_in_flight_(spec.keys_per_conn, 0),
      writes_in_flight_(spec.keys_per_conn, 0),
      tokens_(kTokenRing),
      ring_(ring_size(spec.window)),
      readbuf_(64 * 1024) {
  keys_.reserve(spec.keys_per_conn);
  for (std::uint32_t k = 0; k < spec.keys_per_conn; ++k) {
    keys_.push_back(key_name(conn, k));
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect to dvvd failed");
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

ConnStats Connection::take_stats() {
  ConnStats out = std::move(stats_);
  stats_ = ConnStats{};
  return out;
}

bool Connection::can_send(const Req& r, std::size_t index) const {
  if (count_ >= spec_.window) return false;
  if (r.op == Op::kGet) return writes_in_flight_[r.key] == 0;
  if (reads_in_flight_[r.key] != 0) return false;
  if (r.token_back == 0) return true;
  const std::size_t g = index - r.token_back;
  return tokens_[g % kTokenRing].index_plus1 == g + 1;
}

void Connection::enqueue(std::size_t index, bool record, TraceSamples* samples) {
  const Req& r = stream_[index];
  Inflight& e = ring_[(head_ + count_) & (ring_.size() - 1)];
  ++count_;
  e.index = static_cast<std::uint32_t>(index);
  payload_.clear();
  if (r.op == Op::kGet) {
    dvv::server::encode_get_request(payload_, index + 1, keys_[r.key]);
    e.expected = model_.siblings(r.key);
    ++reads_in_flight_[r.key];
  } else {
    const TokenSlot* slot =
        r.token_back == 0 ? nullptr : &tokens_[(index - r.token_back) % kTokenRing];
    const bool blind = slot == nullptr || slot->blind;
    const auto id = static_cast<ValueId>(index + 1);
    encode_value(value_, spec_.value_bytes, conn_, r.key, r.client, id);
    dvv::server::encode_put_request(payload_, index + 1, keys_[r.key],
                                    blind ? std::string_view() : slot->token,
                                    value_, wire_client(conn_, r.client));
    if (index != drop_put_) model_.put(r.key, id, blind ? nullptr : &slot->seen);
    ++writes_in_flight_[r.key];
  }
  dvv::server::append_frame(outbuf_, payload_);
  if (samples != nullptr && samples->request_payloads.size() < kSampleCap) {
    samples->request_payloads.push_back(payload_);
  }
  if (record) ++stats_.attempted;
}

void Connection::mismatch(std::uint32_t index, const std::string& what) {
  ++mismatches_;
  if (notes_.size() < 5) {
    const Req& r = stream_[index];
    notes_.push_back("model mismatch: connection " + std::to_string(conn_) +
                     ", key " + keys_[r.key] + ", op index " +
                     std::to_string(index) + ": " + what);
  }
}

namespace {

std::string id_list(const std::vector<ValueId>& ids) {
  std::string s = "{";
  for (std::size_t i = 0; i < ids.size() && i < 20; ++i) {
    if (i > 0) s += ",";
    s += ids[i] == 0 ? std::string("preload") : "put@" + std::to_string(ids[i] - 1);
  }
  if (ids.size() > 20) s += ",...";
  return s + "}";
}

}  // namespace

void Connection::on_reply(std::string_view payload, bool record,
                          SpanBuffer* spans, TraceSamples* samples) {
  if (count_ == 0) {  // a reply nobody asked for: the stream is unusable
    broken_ = true;
    return;
  }
  Inflight& e = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --count_;
  const Req& r = stream_[e.index];
  const std::int64_t now = now_ns();
  const bool is_get = r.op == Op::kGet;
  const bool ok =
      dvv::server::parse_response(payload, is_get ? dvv::server::Opcode::kGet
                                                  : dvv::server::Opcode::kPut,
                                  resp_) &&
      resp_.request_id == e.index + 1ULL &&
      resp_.status == dvv::server::ResponseStatus::kOk;
  if (is_get) {
    --reads_in_flight_[r.key];
    TokenSlot& slot = tokens_[e.index % kTokenRing];
    slot.index_plus1 = e.index + 1;
    slot.blind = !ok;
    slot.seen = e.expected;
    if (ok) {
      slot.token = resp_.token_bytes;
      got_.clear();
      bool decoded = true;
      for (const std::string& v : resp_.values) {
        ValueId id = 0;
        if (!decode_value(v, spec_.value_bytes, conn_, r.key, stream_, id)) {
          decoded = false;
          break;
        }
        got_.push_back(id);
      }
      std::sort(got_.begin(), got_.end());
      if (!decoded) {
        mismatch(e.index, "a returned value is not one this key was ever written");
      } else if (got_ != e.expected) {
        std::vector<ValueId> missing;
        std::vector<ValueId> extra;
        std::set_difference(e.expected.begin(), e.expected.end(), got_.begin(),
                            got_.end(), std::back_inserter(missing));
        std::set_difference(got_.begin(), got_.end(), e.expected.begin(),
                            e.expected.end(), std::back_inserter(extra));
        mismatch(e.index, "expected siblings " + id_list(e.expected) + ", got " +
                              id_list(got_) + "; acknowledged writes missing " +
                              id_list(missing) + ", false siblings " + id_list(extra));
      }
      if (record) {
        stats_.max_siblings =
            std::max<std::uint64_t>(stats_.max_siblings, resp_.values.size());
        if (stats_.prefix_gets < spec_.prefix_gets) {
          ++stats_.prefix_gets;
          stats_.prefix_values += resp_.values.size();
          stats_.prefix_token_bytes += resp_.token_bytes.size();
        }
        if (samples != nullptr && samples->tokens.size() < kSampleCap) {
          samples->tokens.push_back(resp_.token_bytes);
        }
      }
    }
  } else {
    --writes_in_flight_[r.key];
  }
  if (!record) return;
  stats_.last_reply_ns = now;
  if (!ok) {
    ++(is_get ? stats_.failed_get : stats_.failed_put);
    return;
  }
  const auto lat = static_cast<std::uint32_t>(
      std::min<std::int64_t>(now - e.send_ns, 0xffffffffLL));
  (is_get ? stats_.get_ns : stats_.put_ns).push_back(lat);
  if (spans != nullptr && e.index % kSpanEvery == 0) {
    spans->add(is_get ? "client.get" : "client.put", e.send_ns, now, 0,
               (static_cast<std::uint64_t>(conn_) << 32) | e.index);
  }
}

void Connection::fail_inflight(bool record) {
  broken_ = true;
  while (count_ > 0) {
    const Inflight& e = ring_[head_];
    const Req& r = stream_[e.index];
    if (r.op == Op::kGet) {
      --reads_in_flight_[r.key];
      TokenSlot& slot = tokens_[e.index % kTokenRing];
      slot.index_plus1 = e.index + 1;
      slot.blind = true;
      if (record) ++stats_.failed_get;
    } else {
      --writes_in_flight_[r.key];
      if (record) ++stats_.failed_put;
    }
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }
}

bool Connection::read_some(bool record, SpanBuffer* spans,
                           TraceSamples* samples) {
  const ssize_t n = ::read(fd_, readbuf_.data(), readbuf_.size());
  if (n < 0 && errno == EINTR) return true;
  if (n <= 0) {
    fail_inflight(record);
    return false;
  }
  decoder_.feed(std::string_view(readbuf_.data(), static_cast<std::size_t>(n)));
  while (!broken_ && decoder_.next(payload_)) {
    on_reply(payload_, record, spans, samples);
  }
  if (decoder_.poisoned() || broken_) {
    fail_inflight(record);
    return false;
  }
  return true;
}

bool Connection::run(std::size_t end, std::int64_t deadline_ns, bool record,
                     SpanBuffer* spans, TraceSamples* samples) {
  if (broken_) return false;
  end = std::min(end, stream_.size());
  while (true) {
    const bool time_left =
        now_ns() < deadline_ns ||
        (record && stats_.prefix_gets < spec_.prefix_gets);
    const std::size_t first = count_;
    while (time_left && cursor_ < end && can_send(stream_[cursor_], cursor_)) {
      enqueue(cursor_, record, samples);
      ++cursor_;
    }
    if (count_ > first) {
      const std::int64_t t = now_ns();
      for (std::size_t i = first; i < count_; ++i) {
        ring_[(head_ + i) & (ring_.size() - 1)].send_ns = t;
      }
      if (record && stats_.first_send_ns == 0) stats_.first_send_ns = t;
      std::size_t sent = 0;
      while (sent < outbuf_.size()) {
        const ssize_t n = ::write(fd_, outbuf_.data() + sent, outbuf_.size() - sent);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          fail_inflight(record);
          return false;
        }
        sent += static_cast<std::size_t>(n);
      }
      outbuf_.clear();
    }
    if (count_ == 0) {
      if (cursor_ >= stream_.size() && time_left) {
        stats_.stream_exhausted = record;
      }
      if (!time_left || cursor_ >= end) break;
      // Nothing in flight, yet the next request could not go: the
      // stream broke its own phase rule.
      throw std::logic_error("stream request " + std::to_string(cursor_) +
                             " can never be sent");
    }
    if (!read_some(record, spans, samples)) return false;
  }
  while (count_ > 0) {
    if (!read_some(record, spans, samples)) return false;
  }
  return !broken_;
}

}  // namespace perfbench
