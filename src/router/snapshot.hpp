// Broker state snapshot & restore.
//
// A broker's routing state is fully reconstructible from three relations:
// SRT entries (advertisement, hops), PRT subscriptions (XPE, hops, merger
// metadata, including what each merger absorbed per hop, from which edge
// exactness is decided), and the forwarding record (XPE, interfaces). The
// snapshot serialises them to a line-oriented text format (every element
// already has an exact textual round-trip) so a restarted broker resumes
// routing without a network-wide re-subscription storm.
//
// Format (one record per line, '\t'-separated fields; strings are the
// canonical to_string forms, which never contain tabs or newlines):
//
//   xroute-broker-snapshot 2
//   srt\t<advertisement>\t<hop>...
//   sub\t<xpe>\t<hop>...
//   merger\t<xpe>\t<original>...
//   absorbed\t<merger xpe>\t<hop>\t<xpe>
//   fwd\t<xpe>\t<interface>...
//   end
#pragma once

#include <iosfwd>
#include <string>

#include "router/broker.hpp"

namespace xroute {

/// Writes `broker`'s routing state. Throws on stream failure.
void save_snapshot(const Broker& broker, std::ostream& out);

/// Rebuilds routing state into `broker` — a freshly constructed Broker
/// with the same interfaces (neighbors/clients) declared. Throws
/// ParseError on malformed input (including an unknown or missing version
/// header) and std::logic_error if `broker` already holds routing state
/// (restoring must start from a blank broker).
void load_snapshot(Broker& broker, std::istream& in);

/// Convenience round-trip through a string (used by tests and tools).
std::string snapshot_to_string(const Broker& broker);
void snapshot_from_string(Broker& broker, const std::string& text);

// -- Link-state transfer (crash resync) -------------------------------------
//
// When a neighbour restarts cold, a broker replays the slice of its state
// that concerns the shared link, using the same line-oriented
// serialisation as the full snapshot:
//
//   xroute-link-sync 1
//   srt\t<advertisement>   advertisements this broker would flood over the
//                          link (held via some other hop)
//   sub\t<xpe>             subscriptions this broker forwarded over the link
//                          (the restarted side must route them back here)
//   fwd\t<xpe>             subscriptions this broker already holds *from*
//                          the restarted side (so it must not re-forward)
//   end

/// Serialises the state `broker` holds about the link on `interface_id`.
std::string export_link_state(const Broker& broker, IfaceId interface_id);

/// Restores a neighbour's link state arriving on `interface_id`:
/// srt lines become SRT entries via that interface, sub lines PRT entries
/// from it, fwd lines forwarding-record hops toward it. Restoration is
/// passive (no messages are emitted). Throws ParseError on malformed input.
void import_link_state(Broker& broker, IfaceId interface_id,
                       const std::string& text);

}  // namespace xroute
