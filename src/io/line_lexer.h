#ifndef SWFOMC_IO_LINE_LEXER_H_
#define SWFOMC_IO_LINE_LEXER_H_

// Shared token-level machinery for the io module's line-oriented readers
// (model_format.cpp, cnf_format.cpp, nnf_format.cpp): whitespace
// tokenization with column tracking, the numeric token parsers with their
// overflow checks, and the line discipline both `.nnf` dialects share.
// Internal to src/io — not part of the module's public surface.

#include <cctype>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "io/diagnostics.h"
#include "numeric/rational.h"

namespace swfomc::io::internal {

/// Calls fn(line_number, line) for every line of `text` (1-based, final
/// newline-less line included). A trailing '\n' terminates the last line
/// rather than opening a phantom empty one — "a\n" is one line, "a\n\n"
/// is two — so EOF diagnostics keyed to the last delivered line point at
/// the last real line. Windows '\r' is stripped. Both readers get their
/// line accounting from here so their diagnostics can never drift.
template <typename LineFn>
inline void ForEachLine(std::string_view text, LineFn&& fn) {
  std::size_t pos = 0;
  std::size_t number = 1;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    fn(number, line);
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
    ++number;
  }
}

/// One whitespace-delimited token plus the 1-based column it starts at.
struct LineToken {
  std::string text;
  std::size_t column = 1;
};

inline std::vector<LineToken> Tokenize(std::string_view line) {
  std::vector<LineToken> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    tokens.push_back(
        LineToken{std::string(line.substr(start, i - start)), start + 1});
  }
  return tokens;
}

[[noreturn]] inline void FailAt(std::string_view source, Location location,
                                const std::string& message) {
  throw ParseError(std::string(source), location, message);
}

/// Parses `text` (usually token.text, but domain ranges parse substrings)
/// as a non-negative integer; errors point at the token's position.
inline std::uint64_t ParseUnsignedText(std::string_view source,
                                       std::size_t line,
                                       const LineToken& token,
                                       const std::string& text,
                                       const char* what) {
  Location at{line, token.column};
  if (text.empty()) FailAt(source, at, std::string("missing ") + what);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      FailAt(source, at,
             std::string("bad ") + what + " '" + text +
                 "' (expected a non-negative integer)");
    }
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    // Checked before the multiply: the *10 itself can wrap past a
    // post-hoc "smaller than before" test.
    if (value > (kMax - digit) / 10) {
      FailAt(source, at, std::string(what) + " '" + text + "' overflows");
    }
    value = value * 10 + digit;
  }
  return value;
}

inline std::uint64_t ParseUnsigned(std::string_view source, std::size_t line,
                                   const LineToken& token, const char* what) {
  return ParseUnsignedText(source, line, token, token.text, what);
}

/// A fixed-shape line must hold exactly `count` tokens, head included;
/// `what` names the line in the diagnostic.
inline void RequireTokenCount(std::string_view source, std::size_t line,
                              const std::vector<LineToken>& tokens,
                              std::size_t count, const char* what) {
  if (tokens.size() < count) {
    FailAt(source, {line, tokens.back().column},
           std::string(what) + ": expected " + std::to_string(count - 1) +
               " value(s)");
  }
  if (tokens.size() > count) {
    FailAt(source, {line, tokens[count].column},
           std::string("unexpected trailing token '") + tokens[count].text +
               "' on " + what + " line");
  }
}

/// The `child-count child-id...` tail of a circuit node line, starting at
/// tokens[from]: every id must name an earlier node (children precede
/// parents, so ids are < `node_count`). Appends the ids to `edges` and
/// sets node->children_begin/children_end to their range.
template <typename Node, typename NodeId>
inline void ParseChildren(std::string_view source, std::size_t line,
                          const std::vector<LineToken>& tokens,
                          std::size_t from, std::size_t node_count,
                          Node* node, std::vector<NodeId>* edges) {
  std::uint64_t count =
      ParseUnsigned(source, line, tokens[from], "child count");
  if (tokens.size() - from - 1 != count) {
    FailAt(source, {line, tokens[from].column},
           "child count " + std::to_string(count) + " does not match the " +
               std::to_string(tokens.size() - from - 1) +
               " child id(s) on the line");
  }
  node->children_begin = static_cast<std::uint32_t>(edges->size());
  for (std::size_t i = from + 1; i < tokens.size(); ++i) {
    std::uint64_t child = ParseUnsigned(source, line, tokens[i], "child id");
    if (child >= node_count) {
      FailAt(source, {line, tokens[i].column},
             "child " + std::to_string(child) +
                 " does not precede its parent (node " +
                 std::to_string(node_count) + ")");
    }
    edges->push_back(static_cast<NodeId>(child));
  }
  node->children_end = static_cast<std::uint32_t>(edges->size());
}

/// End-of-file check of a header-declared count against what the file
/// delivered: "<what> count mismatch: header declares D, <found> A".
inline void RequireDeclaredCount(std::string_view source, std::size_t line,
                                 const char* what, std::uint64_t declared,
                                 std::uint64_t actual, const char* found) {
  if (actual != declared) {
    FailAt(source, {line, 1},
           std::string(what) + " count mismatch: header declares " +
               std::to_string(declared) + ", " + found + " " +
               std::to_string(actual));
  }
}

inline std::int64_t ParseSigned(std::string_view source, std::size_t line,
                                const LineToken& token, const char* what) {
  Location at{line, token.column};
  std::string_view text = token.text;
  bool negative = false;
  if (!text.empty() && text[0] == '-') {
    negative = true;
    text.remove_prefix(1);
  }
  if (text.empty()) {
    FailAt(source, at,
           std::string("bad ") + what + " '" + token.text + "'");
  }
  std::int64_t value = 0;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      FailAt(source, at,
             std::string("bad ") + what + " '" + token.text +
                 "' (expected an integer)");
    }
    if (value > (std::int64_t{1} << 32)) {
      FailAt(source, at,
             std::string(what) + " '" + token.text + "' overflows");
    }
    value = value * 10 + (c - '0');
  }
  return negative ? -value : value;
}

inline numeric::BigRational ParseRational(std::string_view source,
                                          std::size_t line,
                                          const LineToken& token) {
  try {
    return numeric::BigRational::FromString(token.text);
  } catch (const std::invalid_argument&) {
    FailAt(source, {line, token.column},
           "bad rational '" + token.text +
               "' (expected \"a\", \"-a\", or \"a/b\")");
  }
}

}  // namespace swfomc::io::internal

#endif  // SWFOMC_IO_LINE_LEXER_H_
