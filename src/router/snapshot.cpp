#include "router/snapshot.hpp"

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "xpath/parser.hpp"

namespace xroute {

namespace {

constexpr const char kHeaderPrefix[] = "xroute-broker-snapshot";
constexpr const char kHeader[] = "xroute-broker-snapshot 2";
constexpr const char kSyncHeader[] = "xroute-link-sync 1";

/// Rejects a first line that is not exactly `expected`, distinguishing an
/// unsupported version of the right format from a foreign/missing header.
void check_header(const std::string& line, const char* expected,
                  const char* prefix, const char* what) {
  if (line == expected) return;
  if (line.rfind(prefix, 0) == 0) {
    throw ParseError(std::string(what) + ": unsupported version header '" +
                     line + "' (expected '" + expected + "')");
  }
  throw ParseError(std::string(what) + ": missing or unrecognised header '" +
                   line + "' (expected '" + expected + "')");
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (true) {
    std::size_t tab = line.find('\t', pos);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(pos));
      return fields;
    }
    fields.push_back(line.substr(pos, tab - pos));
    pos = tab + 1;
  }
}

int parse_int(const std::string& field) {
  try {
    return std::stoi(field);
  } catch (const std::exception&) {
    throw ParseError("snapshot: bad integer '" + field + "'");
  }
}

}  // namespace

void save_snapshot(const Broker& broker, std::ostream& out) {
  out << kHeader << '\n';

  for (const auto& entry : broker.srt().entries()) {
    out << "srt\t" << entry->advertisement.to_string();
    for (IfaceId hop : entry->hops) out << '\t' << hop.value();
    out << '\n';
  }

  for (const auto& [xpe, hops] : broker.prt().entries_with_hops()) {
    out << "sub\t" << xpe.to_string();
    for (IfaceId hop : hops) out << '\t' << hop.value();
    out << '\n';
  }
  if (broker.prt().covering()) {
    broker.prt().tree()->for_each([&](const SubscriptionTree::Node& node) {
      if (!node.merger) return;
      out << "merger\t" << node.xpe.to_string();
      for (const Xpe& original : node.merged_from) {
        out << '\t' << original.to_string();
      }
      out << '\n';
      for (const auto& [hop, xpe] : node.absorbed) {
        out << "absorbed\t" << node.xpe.to_string() << '\t' << hop.value()
            << '\t' << xpe.to_string() << '\n';
      }
    });
  }

  for (const auto& [xpe, interfaces] : broker.forwarding_record()) {
    out << "fwd\t" << xpe.to_string();
    for (IfaceId interface_id : interfaces) out << '\t' << interface_id.value();
    out << '\n';
  }

  out << "end\n";
  if (!out) throw std::runtime_error("snapshot: write failure");
}

void load_snapshot(Broker& broker, std::istream& in) {
  if (broker.srt_size() > 0 || broker.prt_size() > 0 ||
      !broker.forwarding_record().empty()) {
    throw std::logic_error(
        "load_snapshot: broker already holds routing state; restore "
        "requires a freshly constructed broker");
  }
  std::string line;
  if (!std::getline(in, line)) {
    throw ParseError("snapshot: missing or unrecognised header '' (expected '" +
                     std::string(kHeader) + "')");
  }
  check_header(line, kHeader, kHeaderPrefix, "snapshot");
  // Merger records go to the covering tree (a flat table has none).
  SubscriptionTree* tree = broker.prt().tree();
  bool ended = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      ended = true;
      break;
    }
    std::vector<std::string> fields = split_tabs(line);
    const std::string& kind = fields[0];
    if (kind == "srt") {
      if (fields.size() < 3) throw ParseError("snapshot: srt needs hops");
      Advertisement adv = parse_advertisement(fields[1]);
      IfaceSet hops;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        hops.insert(IfaceId{parse_int(fields[i])});
      }
      broker.restore_advertisement(adv, hops);
    } else if (kind == "sub") {
      if (fields.size() < 3) throw ParseError("snapshot: sub needs hops");
      Xpe xpe = parse_xpe(fields[1]);
      IfaceSet hops;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        hops.insert(IfaceId{parse_int(fields[i])});
      }
      broker.restore_subscription(xpe, hops);
    } else if (kind == "merger") {
      if (fields.size() < 2) throw ParseError("snapshot: bad merger line");
      Xpe merger = parse_xpe(fields[1]);
      std::vector<Xpe> originals;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        originals.push_back(parse_xpe(fields[i]));
      }
      if (tree) tree->restore_merger(merger, std::move(originals));
    } else if (kind == "absorbed") {
      if (fields.size() != 4) throw ParseError("snapshot: bad absorbed line");
      Xpe merger = parse_xpe(fields[1]);
      IfaceId hop{parse_int(fields[2])};
      Xpe xpe = parse_xpe(fields[3]);
      if (tree) tree->restore_absorbed(merger, hop, xpe);
    } else if (kind == "fwd") {
      if (fields.size() < 2) throw ParseError("snapshot: bad fwd line");
      Xpe xpe = parse_xpe(fields[1]);
      IfaceSet interfaces;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        interfaces.insert(IfaceId{parse_int(fields[i])});
      }
      broker.restore_forwarding(xpe, std::move(interfaces));
    } else {
      throw ParseError("snapshot: unknown record '" + kind + "'");
    }
  }
  if (!ended) throw ParseError("snapshot: truncated (no 'end')");
}

std::string snapshot_to_string(const Broker& broker) {
  std::ostringstream os;
  save_snapshot(broker, os);
  return os.str();
}

void snapshot_from_string(Broker& broker, const std::string& text) {
  std::istringstream is(text);
  load_snapshot(broker, is);
}

std::string export_link_state(const Broker& broker, IfaceId interface_id) {
  std::ostringstream out;
  out << kSyncHeader << '\n';

  // Advertisements this broker would flood over the link: everything held
  // via some hop other than the link itself (entries held *only* via the
  // link came from the restarted side and will be re-advertised by its
  // publishers).
  for (const auto& entry : broker.srt().entries()) {
    bool via_elsewhere = false;
    for (IfaceId hop : entry->hops) {
      if (hop != interface_id) {
        via_elsewhere = true;
        break;
      }
    }
    if (via_elsewhere) out << "srt\t" << entry->advertisement.to_string() << '\n';
  }

  // Subscriptions this broker holds via any hop other than the link: the
  // peer must hold them in its PRT with the link as lasthop, or
  // publications entering on its side stop routing back here. Exporting
  // from the PRT (rather than the per-link forwarding record) makes the
  // slice complete for a *cold* joiner too — a fresh link was never
  // forwarded anything, yet the newcomer still needs every route.
  for (const auto& [xpe, hops] : broker.prt().entries_with_hops()) {
    for (IfaceId hop : hops) {
      if (hop != interface_id) {
        out << "sub\t" << xpe.to_string() << '\n';
        break;
      }
    }
  }

  // Subscriptions already held *from* the restarted side (its pre-crash
  // forwards, mergers included): restoring them into its forwarding record
  // stops it from re-forwarding what this side already has.
  for (const auto& [xpe, hops] : broker.prt().entries_with_hops()) {
    if (hops.count(interface_id)) out << "fwd\t" << xpe.to_string() << '\n';
  }

  out << "end\n";
  return out.str();
}

void import_link_state(Broker& broker, IfaceId interface_id,
                       const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    throw ParseError("link sync: missing or unrecognised header '' (expected '" +
                     std::string(kSyncHeader) + "')");
  }
  check_header(line, kSyncHeader, "xroute-link-sync", "link sync");
  bool ended = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      ended = true;
      break;
    }
    std::vector<std::string> fields = split_tabs(line);
    if (fields.size() != 2) {
      throw ParseError("link sync: bad record '" + line + "'");
    }
    const std::string& kind = fields[0];
    if (kind == "srt") {
      broker.restore_advertisement(parse_advertisement(fields[1]),
                                   {interface_id});
    } else if (kind == "sub") {
      broker.restore_subscription(parse_xpe(fields[1]), {interface_id});
    } else if (kind == "fwd") {
      broker.restore_forwarding_add(parse_xpe(fields[1]), interface_id);
    } else {
      throw ParseError("link sync: unknown record '" + kind + "'");
    }
  }
  if (!ended) throw ParseError("link sync: truncated (no 'end')");
}

}  // namespace xroute
