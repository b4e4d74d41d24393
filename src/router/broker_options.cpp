#include "router/broker_options.hpp"

#include <charconv>

namespace xroute {

namespace {

constexpr std::size_t kMaxThreads = 256;

bool parse_bool(const std::string& value, bool* out) {
  if (value == "on" || value == "true" || value == "1") {
    *out = true;
    return true;
  }
  if (value == "off" || value == "false" || value == "0") {
    *out = false;
    return true;
  }
  return false;
}

bool parse_size(const std::string& value, std::size_t* out) {
  std::size_t parsed = 0;
  auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size()) return false;
  *out = parsed;
  return true;
}

}  // namespace

std::string BrokerOptions::validate() const {
  if (match_threads == 0) {
    return "match_threads must be >= 1 (1 = sequential matching)";
  }
  if (match_threads > kMaxThreads) {
    return "match_threads " + std::to_string(match_threads) +
           " exceeds the supported maximum of " + std::to_string(kMaxThreads);
  }
  if (merging_enabled && merge_universe == nullptr) {
    return "merging requires a path universe (merge_universe); without one "
           "a merge pass never merges";
  }
  if (merging_enabled && !use_covering) {
    return "merging requires covering (the merge pass runs on the "
           "subscription tree)";
  }
  if (merging_enabled && merge_interval == 0) {
    return "merging enabled with merge_interval 0 (a pass would never run)";
  }
  return "";
}

std::string BrokerOptions::parse_option(const std::string& key,
                                        const std::string& value) {
  BrokerOptions& options = *this;
  auto bad_bool = [&]() {
    return "option '" + key + "': expected on/off/true/false/1/0, got '" +
           value + "'";
  };
  auto bad_size = [&]() {
    return "option '" + key + "': expected a non-negative integer, got '" +
           value + "'";
  };
  if (key == "advertisements") {
    return parse_bool(value, &options.use_advertisements) ? "" : bad_bool();
  }
  if (key == "covering") {
    return parse_bool(value, &options.use_covering) ? "" : bad_bool();
  }
  if (key == "track_covered") {
    return parse_bool(value, &options.track_covered) ? "" : bad_bool();
  }
  if (key == "threads") {
    return parse_size(value, &options.match_threads) ? "" : bad_size();
  }
  return "unknown broker option '" + key + "'";
}

std::string BrokerOptions::parse_option(const std::string& key_equals_value) {
  auto eq = key_equals_value.find('=');
  if (eq == std::string::npos || eq == 0) {
    return "expected key=value, got '" + key_equals_value + "'";
  }
  return parse_option(key_equals_value.substr(0, eq),
                      key_equals_value.substr(eq + 1));
}

}  // namespace xroute
