// BrokerOptions — every broker knob, in one validated struct.
//
// Routing strategy (advertisements/covering), merging, and the parallel
// matching engine are configured here, and every harness that builds a
// broker — the discrete-event simulator, `xroutectl serve` over an overlay
// file, the benches — parses textual knobs through the same
// BrokerOptions::parse_option(), so a knob spelled once works everywhere and an
// invalid combination fails loudly at construction instead of as UB later.
#pragma once

#include <cstddef>
#include <string>

#include "index/merging.hpp"

namespace xroute {

struct BrokerOptions {
  bool use_advertisements = true;
  bool use_covering = true;
  /// Track subscriptions a newcomer covers (enables the upstream
  /// unsubscription optimisation; costs an extra tree sweep per insert).
  bool track_covered = true;
  bool merging_enabled = false;
  MergeOptions merge_options;
  /// Path universe for D_imperfect; validate() rejects merging without
  /// one.
  const PathUniverse* merge_universe = nullptr;
  /// Run a merge pass after this many newly inserted subscriptions.
  std::size_t merge_interval = 100;

  // -- Parallel matching engine (router/match_scheduler.hpp) ---------------
  /// Worker threads for publication matching. 1 = sequential (no pool, no
  /// synchronisation anywhere on the hot path). The discrete-event
  /// simulator only accepts 1 (it folds wall-clock processing time into
  /// simulated time, which a pool would perturb); the transport broker
  /// takes any validated value.
  std::size_t match_threads = 1;

  /// Applies one textual knob; returns an empty string on success, else a
  /// one-line error. This is THE option parser: `xroutectl --option`
  /// flags, overlay-file `option` lines, fault plans and the scenario DSL
  /// all funnel through it, so a knob spelled once works everywhere and
  /// every surface emits the same error text. Keys (values:
  /// on/off/true/false/1/0 for booleans):
  ///
  ///   advertisements, covering, track_covered  booleans
  ///   threads                                  match_threads
  ///
  /// Merging has no key: it needs a path universe that no textual surface
  /// can supply, so it is configured in code (merging_enabled plus
  /// merge_universe, or Network's routing strategy).
  std::string parse_option(const std::string& key, const std::string& value);

  /// Applies a "key=value" spelling (CLI convenience); same errors.
  std::string parse_option(const std::string& key_equals_value);

  /// Validates the combination; returns an empty string if usable, else a
  /// one-line description of the first problem. Broker's constructor
  /// throws std::invalid_argument with this text.
  std::string validate() const;
};

}  // namespace xroute
