// Small string helpers shared across modules.
#ifndef BYPASSDB_COMMON_STRING_UTIL_H_
#define BYPASSDB_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace bypass {

/// ASCII lower-casing (SQL identifiers and keywords are case-insensitive).
std::string ToLower(std::string_view s);

/// ASCII upper-casing.
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// "(" + inner + ")", built by appending: GCC 12 raises a false
/// -Wrestrict on a one-character literal prefixed to a temporary string.
std::string Parenthesize(std::string_view inner);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// SQL LIKE pattern match: '%' matches any sequence, '_' any single
/// character. No escape character support (the paper's queries do not
/// need one).
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Structural shape of a LIKE pattern, recognized once per batch so the
/// columnar string kernel (and the zone-map LIKE test) can replace the
/// general backtracking matcher with a substring primitive.
enum class LikeShape {
  kGeneric,   ///< needs the full matcher ('_' or interior '%')
  kMatchAll,  ///< pattern is one or more '%' — matches everything
  kExact,     ///< no wildcards: string equality with `body`
  kPrefix,    ///< 'body%'   — starts_with(body)
  kSuffix,    ///< '%body'   — ends_with(body)
  kContains,  ///< '%body%'  — find(body) != npos
};

/// The analyzed form: `body` views into the pattern passed to
/// AnalyzeLikePattern, so the pattern must outlive the analysis.
struct LikePattern {
  LikeShape shape = LikeShape::kGeneric;
  std::string_view body;
};

/// Classifies `pattern`. Any '_' (the matcher's hard case) or any '%'
/// that is neither a leading nor a trailing run yields kGeneric.
LikePattern AnalyzeLikePattern(std::string_view pattern);

/// Matches `text` against an analyzed pattern; `pattern` is the original
/// pattern string for the kGeneric fallback.
bool LikeMatchShaped(std::string_view text, const LikePattern& shaped,
                     std::string_view pattern);

}  // namespace bypass

#endif  // BYPASSDB_COMMON_STRING_UTIL_H_
