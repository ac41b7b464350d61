// perfbench/src/host.hpp — host and build fingerprint, process memory.
#pragma once

#include <string>

namespace perfbench {

/// True when the benchmark itself was compiled with optimisation.
[[nodiscard]] bool optimised_build();

/// One JSON object: CPU model, hardware threads, LLC size, compiler and
/// version, build type and flags.
[[nodiscard]] std::string host_fingerprint_json();

/// Resident set of this process now, MiB.
[[nodiscard]] double rss_mib();

}  // namespace perfbench
