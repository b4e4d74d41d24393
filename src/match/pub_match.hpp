// Publication-vs-subscription matching: does a concrete root-to-leaf path
// satisfy an XPE?
//
// Semantics: the XPE's steps embed into the path — a child step consumes
// the immediately next position, a descendant step may first skip any
// number of positions, '*' matches any element. Standard XPath
// node-selection ("prefix") semantics: the XPE need not consume the whole
// path. An anchored XPE ("/a…") must start at the root.
#pragma once

#include "xml/paths.hpp"
#include "xpath/xpe.hpp"

namespace xroute {

/// True if path `p` matches subscription `s`. Exact (greedy segment
/// embedding, which is complete because the path is concrete).
bool matches(const Path& p, const Xpe& s);

/// Interned fast path: same relation, but element tests compare dense
/// symbol ids (util/symbols.hpp) instead of strings. Intern the path once
/// per routing decision and amortise over every table entry visited. Kept
/// as a separate implementation so the string version above remains the
/// byte-for-byte pre-optimisation reference for differential tests and
/// the perf_routing baseline. PathView is the kernel signature so callers
/// can feed symbols from reusable scratch storage (zero allocation).
bool matches(const PathView& p, const Xpe& s);

/// Raw-program kernel: same relation as matches(PathView, Xpe), but driven
/// by a borrowed span of Xpe::program() words that need not live inside
/// `s` itself. The PRT's compiled index (router/routing_tables.hpp)
/// serialises every bucket's programs into one contiguous word stream and
/// scans it with this function, so the dominant case — a failed test —
/// touches only sequential memory instead of chasing Node → Xpe →
/// program_ per entry. `s` is consulted only for predicate evaluation
/// (rare).
bool matches_program(const PathView& p, const std::uint32_t* prog,
                     std::size_t n, const Xpe& s);

inline bool matches(const InternedPath& p, const Xpe& s) {
  return matches(p.view(), s);
}

}  // namespace xroute
