#include "common/string_util.h"

#include <cctype>

namespace bypass {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Parenthesize(std::string_view inner) {
  std::string out;
  out.reserve(inner.size() + 2);
  out += '(';
  out += inner;
  out += ')';
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard matching with backtracking over the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

LikePattern AnalyzeLikePattern(std::string_view pattern) {
  LikePattern out;
  if (pattern.find('_') != std::string_view::npos) return out;
  size_t lead = 0;
  while (lead < pattern.size() && pattern[lead] == '%') ++lead;
  if (lead == pattern.size()) {
    out.shape = lead > 0 ? LikeShape::kMatchAll : LikeShape::kExact;
    out.body = std::string_view();
    return out;
  }
  size_t tail = pattern.size();
  while (tail > lead && pattern[tail - 1] == '%') --tail;
  std::string_view body = pattern.substr(lead, tail - lead);
  if (body.find('%') != std::string_view::npos) return out;  // interior '%'
  out.body = body;
  if (lead == 0 && tail == pattern.size()) {
    out.shape = LikeShape::kExact;
  } else if (lead == 0) {
    out.shape = LikeShape::kPrefix;
  } else if (tail == pattern.size()) {
    out.shape = LikeShape::kSuffix;
  } else {
    out.shape = LikeShape::kContains;
  }
  return out;
}

bool LikeMatchShaped(std::string_view text, const LikePattern& shaped,
                     std::string_view pattern) {
  switch (shaped.shape) {
    case LikeShape::kMatchAll:
      return true;
    case LikeShape::kExact:
      return text == shaped.body;
    case LikeShape::kPrefix:
      return text.size() >= shaped.body.size() &&
             text.substr(0, shaped.body.size()) == shaped.body;
    case LikeShape::kSuffix:
      return text.size() >= shaped.body.size() &&
             text.substr(text.size() - shaped.body.size()) == shaped.body;
    case LikeShape::kContains:
      return text.find(shaped.body) != std::string_view::npos;
    case LikeShape::kGeneric:
      break;
  }
  return LikeMatch(text, pattern);
}

}  // namespace bypass
