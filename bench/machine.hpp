// The machine a bench ran on, recorded in its JSON config beside `cores`
// so a figure can be read against the hardware that produced it.
#pragma once

#include <fstream>
#include <string>

namespace xroute {

/// The CPU model the kernel reports (first "model name" line of
/// /proc/cpuinfo), or "unknown" where there is none.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

}  // namespace xroute
