// Symbol interning for the matching hot path.
//
// Element names flow through every matching kernel (publication matching,
// covering, advertisement overlap); comparing them as std::string costs a
// length check plus a byte scan per step per entry. The SymbolTable maps
// each distinct element name to a dense uint32_t id so the hot loops
// compare integers instead. Ids are process-wide and never recycled, so a
// symbol comparison is exact name equality for the whole process lifetime.
//
// Id 0 is reserved for the wildcard "*" (matching the literal stored in
// Step::name), which makes the element-level rules branch-cheap:
//
//   overlap(a, s)  =  a == kWildcardId || s == kWildcardId || a == s
//   covers(t, m)   =  t == kWildcardId || t == m
//
// lookup() is the read-only variant for document-side names: a path
// element never seen in any XPE or advertisement maps to kNoSymbol, which
// equals no registered id and is not the wildcard, so comparisons fail
// exactly as the string comparison would — without growing the table with
// the document vocabulary.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace xroute {

class SymbolTable {
 public:
  /// Id of the wildcard node test "*".
  static constexpr std::uint32_t kWildcardId = 0;
  /// Returned by lookup() for names never interned; matches nothing.
  static constexpr std::uint32_t kNoSymbol = 0xFFFFFFFFu;

  /// The process-wide table every Xpe/Advertisement/Path interns into.
  static SymbolTable& global();

  /// Returns the id for `name`, registering it if new.
  std::uint32_t intern(std::string_view name);

  /// Read-only: the id for `name`, or kNoSymbol if never interned.
  std::uint32_t lookup(std::string_view name) const;

  /// The name behind an id (valid ids only; kNoSymbol is not an id).
  const std::string& name(std::uint32_t id) const;

  std::size_t size() const;

  SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

 private:
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::uint32_t, SvHash, SvEq> ids_;
  /// Pointers into ids_ keys; node-based map keys are address-stable.
  std::vector<const std::string*> names_;
};

/// Shorthand for SymbolTable::global().intern(name).
std::uint32_t intern_symbol(std::string_view name);

/// Element-level overlap rule on interned ids (see match/rules.hpp for the
/// string form and the semantics).
inline bool symbols_overlap(std::uint32_t a, std::uint32_t s) {
  return a == SymbolTable::kWildcardId || s == SymbolTable::kWildcardId ||
         a == s;
}

/// Element-level covering rule on interned ids: '*' covers anything, a
/// concrete name covers only itself.
inline bool symbol_covers(std::uint32_t t, std::uint32_t m) {
  return t == SymbolTable::kWildcardId || t == m;
}

}  // namespace xroute
