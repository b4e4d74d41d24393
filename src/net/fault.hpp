// Fault model for the overlay simulator.
//
// The paper deploys on PlanetLab, where links drop, duplicate and reorder
// messages and brokers fail; the simulator reproduces those conditions
// deterministically. A FaultProfile describes one link's misbehaviour
// (applied per transmission attempt, drawn from the simulator's seeded
// fault Rng), and a FaultPlan scripts a whole scenario: per-link profiles,
// scheduled link down windows, and broker crash/restart events with or
// without a snapshot. Plans have a line-oriented text form so scenarios
// can be replayed from a file (tools/xroutectl faultsim, bug repros).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace xroute {

/// Per-link fault behaviour. All probabilities are per transmission
/// attempt (retransmissions draw again).
struct FaultProfile {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  /// Probability that a frame is delayed by an extra uniform draw in
  /// [0, reorder_jitter_ms), scrambling arrival order on the link.
  double reorder_prob = 0.0;
  double reorder_jitter_ms = 0.0;
  /// Scheduled outage windows [from, to) in simulated ms: every frame
  /// departing inside a window is lost.
  std::vector<std::pair<double, double>> down_windows;

  /// Is the link up at `time` (outside every down window)?
  bool link_up(double time) const;
  /// Does this profile inject any fault at all?
  bool any() const;
};

/// How a scripted crash restarts the broker.
enum class RestartMode {
  kCold,        ///< all routing state lost, no recovery protocol
  kColdResync,  ///< state lost; neighbours replay link state (sync handshake)
  kSnapshot,    ///< state restored from a snapshot taken at crash time
};

struct CrashEvent {
  double time = 0.0;
  int broker = 0;
  RestartMode mode = RestartMode::kCold;
};

/// A scripted fault scenario: link profiles plus crash events, with
/// scenario hints (topology/workload/seed) used by the file-driven
/// harnesses so a plan file fully describes a repro.
struct FaultPlan {
  /// Applied to every broker-broker link without an override.
  FaultProfile default_profile;
  /// Per-link overrides, keyed by (min(a,b), max(a,b)) broker pair.
  std::map<std::pair<int, int>, FaultProfile> link_profiles;
  std::vector<CrashEvent> crashes;

  // -- Scenario hints (drivers: xroutectl faultsim, bench/fault_recovery) --
  std::string topology = "tree";  ///< tree | chain | star | random
  std::size_t topology_size = 3;  ///< levels for tree, broker count otherwise
  std::uint64_t seed = 42;
  std::size_t subscribers = 4;
  std::size_t documents = 10;
  /// Broker knobs (`option <key> <value>` lines), validated at parse time
  /// through BrokerOptions::parse_option() — the same parser `xroutectl serve`
  /// flags and overlay files use — and applied to every broker the
  /// harness builds.
  std::vector<std::pair<std::string, std::string>> broker_options;
};

/// Parses the plan text format. One directive per line, '#' comments:
///
///   seed 7
///   topology tree 3          # tree <levels> | chain <n> | star <n> | random <n>
///   subscribers 4
///   documents 10
///   drop 0.10                # default-profile directives
///   dup 0.02
///   reorder 0.10 2.0         # probability, jitter ms
///   down 50.0 120.0          # outage window on every link
///   link 1 2 drop 0.30       # per-link override (same sub-directives)
///   link 1 2 down 10.0 90.0
///   crash 1 200.0 resync     # broker, time, cold | resync | snapshot
///   option covering off      # broker knob (router/broker_options.hpp)
///
/// Throws ParseError on malformed input.
FaultPlan parse_fault_plan(std::istream& in);
FaultPlan parse_fault_plan(const std::string& text);

const char* to_string(RestartMode mode);

}  // namespace xroute
