// perfbench/src/trace.cpp — span merge, self time, span file.
#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

std::vector<SelfTime> self_times(const std::vector<const SpanBuffer*>& buffers) {
  // Children of each span, as intervals clipped to the parent.
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) by_id.emplace(s.id, &s);
  }
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& [id, s] : by_id) {
    if (s->parent == 0) continue;
    const auto it = by_id.find(s->parent);
    if (it == by_id.end()) continue;
    const Span& p = *it->second;
    const std::int64_t a = std::max(s->start_ns, p.start_ns);
    const std::int64_t z = std::min(s->end_ns, p.end_ns);
    if (z > a) children[s->parent].emplace_back(a, z);
  }
  std::map<std::string, SelfTime> out;
  for (const auto& [id, s] : by_id) {
    SelfTime& t = out[s->name];
    t.name = s->name;
    ++t.spans;
    const double total = static_cast<double>(s->end_ns - s->start_ns);
    t.total_ns += total;
    // Covered = union of the (clipped) child intervals.
    double covered = 0.0;
    auto it = children.find(id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_a = iv[0].first;
      std::int64_t cur_z = iv[0].second;
      for (std::size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > cur_z) {
          covered += static_cast<double>(cur_z - cur_a);
          cur_a = iv[i].first;
          cur_z = iv[i].second;
        } else {
          cur_z = std::max(cur_z, iv[i].second);
        }
      }
      covered += static_cast<double>(cur_z - cur_a);
    }
    t.self_ns += total - covered;
  }
  std::vector<SelfTime> v;
  v.reserve(out.size());
  for (auto& [name, t] : out) v.push_back(std::move(t));
  return v;
}

std::vector<SelfTime> by_layer(const std::vector<SelfTime>& per_name) {
  std::map<std::string, SelfTime> out;
  for (const SelfTime& t : per_name) {
    const std::string layer = t.name.substr(0, t.name.find('.'));
    SelfTime& l = out[layer];
    l.name = layer;
    l.spans += t.spans;
    l.total_ns += t.total_ns;
    l.self_ns += t.self_ns;
  }
  std::vector<SelfTime> v;
  for (auto& [name, t] : out) v.push_back(std::move(t));
  return v;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers,
                 const std::vector<SelfTime>& summary) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      std::fprintf(f,
                   "{\"id\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%llu,\"op\":%llu}\n",
                   static_cast<unsigned long long>(s.id), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
    }
  }
  for (const SelfTime& t : summary) {
    std::fprintf(f,
                 "{\"summary\":\"%s\",\"spans\":%llu,\"total_ns\":%.0f,"
                 "\"self_ns\":%.0f}\n",
                 t.name.c_str(), static_cast<unsigned long long>(t.spans),
                 t.total_ns, t.self_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
