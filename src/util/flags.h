#ifndef CASCACHE_UTIL_FLAGS_H_
#define CASCACHE_UTIL_FLAGS_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace cascache::util {

/// The one value parser behind command-line flags, list elements and the
/// few environment variables the code reads. Numbers and booleans reject
/// empty input and trailing junk; integers reject overflow, values their
/// target type cannot hold and (for unsigned targets) a sign; doubles
/// reject NaN and +-inf. Booleans accept true|1|yes and false|0|no.
/// `*out` is left untouched on error.
Status ParseValue(std::string_view text, std::string* out);
Status ParseValue(std::string_view text, bool* out);
Status ParseValue(std::string_view text, double* out);

namespace flags_internal {
/// "expected <what>, got '<text>'".
Status Malformed(std::string_view what, std::string_view text);
/// "'<text>' is out of range [<min>, <max>]".
Status OutOfRange(std::string_view text, const std::string& min,
                  const std::string& max);
/// "unknown value '<text>' (expected <names>)".
Status UnknownChoice(std::string_view text, const std::string& names);
}  // namespace flags_internal

template <typename T>
  requires std::integral<T> && (!std::same_as<T, bool>)
Status ParseValue(std::string_view text, T* out) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec == std::errc::result_out_of_range) {
    return flags_internal::OutOfRange(
        text, std::to_string(std::numeric_limits<T>::min()),
        std::to_string(std::numeric_limits<T>::max()));
  }
  if (text.empty() || ec != std::errc() || ptr != end) {
    return flags_internal::Malformed(
        std::is_signed_v<T> ? "an integer" : "an unsigned integer", text);
  }
  *out = parsed;
  return Status::Ok();
}

/// A name -> value table for an enum-valued flag or list element.
template <typename E>
using Choices = std::span<const std::pair<std::string_view, E>>;

/// Looks `text` up in `choices`; an unknown name is rejected with the
/// list of valid ones.
template <typename E>
Status ParseChoice(std::string_view text,
                   std::type_identity_t<Choices<E>> choices, E* out) {
  std::string names;
  for (const auto& [name, value] : choices) {
    if (name == text) {
      *out = value;
      return Status::Ok();
    }
    if (!names.empty()) names += '|';
    names += name;
  }
  return flags_internal::UnknownChoice(text, names);
}

/// Command-line flag parser for the tools and benches. Every flag is bound
/// to the field it sets. Supports `--name=value`, `--name value` and bare
/// boolean `--name`; unknown flags and malformed values are errors;
/// positional arguments are collected in order.
class FlagParser {
 public:
  /// Binds --name to `field` (std::string, bool, an integer or double).
  /// The field's current value is the default; Parse overwrites it only
  /// when the flag is given. All Add calls must happen before Parse, and
  /// `field` must outlive the parser.
  template <typename T>
  void Add(const std::string& name, T* field, const std::string& help) {
    CASCACHE_CHECK(field != nullptr);
    flags_.push_back({name, help, FormatDefault(*field),
                      std::is_same_v<T, bool>,
                      [field](std::string_view text) {
                        return ParseValue(text, field);
                      }});
  }

  /// Binds an enum-valued --name to `field` through a name table, which
  /// must outlive the parser. The default is the name of the field's
  /// current value.
  template <typename E>
  void Add(const std::string& name, E* field,
           std::type_identity_t<Choices<E>> choices,
           const std::string& help) {
    CASCACHE_CHECK(field != nullptr);
    std::string default_name;
    for (const auto& [choice, value] : choices) {
      if (value == *field) default_name = choice;
    }
    flags_.push_back({name, help, default_name, false,
                      [field, choices](std::string_view text) {
                        return ParseChoice<E>(text, choices, field);
                      }});
  }

  /// Parses argv (excluding argv[0]).
  Status Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  /// Help text listing every flag with its default and description.
  std::string Usage(const std::string& program) const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string default_text;
    bool is_bool;
    std::function<Status(std::string_view)> set;
  };

  static std::string FormatDefault(const std::string& value) { return value; }
  static std::string FormatDefault(bool value) {
    return value ? "true" : "false";
  }
  template <typename T>
  static std::string FormatDefault(T value) {
    return std::to_string(value);
  }

  Flag* Find(const std::string& name);

  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

/// Splits a comma-separated list ("a,b,c"); empty input gives an empty
/// vector, empty elements are dropped.
std::vector<std::string> SplitCommaList(const std::string& text);

}  // namespace cascache::util

#endif  // CASCACHE_UTIL_FLAGS_H_
