// perfbench/src/host.cpp
#include "host.hpp"

#include <unistd.h>

#include <fstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of the highest-level cache cpu0 reports.
std::string llc_size() {
  std::string best = "unknown";
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = first_line(dir + "level");
    if (level.empty()) continue;
    const int l = std::stoi(level);
    if (l > best_level) {
      best_level = l;
      best = "L" + level + " " + first_line(dir + "size");
    }
  }
  return best;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool optimised_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string host_fingerprint_json() {
  std::string compiler;
#if defined(__clang__)
  compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  compiler = "gcc " __VERSION__;
#else
  compiler = "unknown";
#endif
  return "{\"cpu\": \"" + escape(cpu_model()) + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"llc\": \"" + escape(llc_size()) + "\", \"compiler\": \"" +
         escape(compiler) + "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\", \"cxx_flags\": \"" +
         escape(PERFBENCH_CXX_FLAGS) + "\", \"optimised\": " +
         (optimised_build() ? "true" : "false") + "}";
}

double rss_mib() {
  std::ifstream in("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
