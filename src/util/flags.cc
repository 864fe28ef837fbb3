#include "util/flags.h"

#include <cmath>
#include <cstdlib>
#include <utility>

namespace cascache::util {

namespace flags_internal {

Status Malformed(std::string_view what, std::string_view text) {
  std::string message = "expected ";
  message.append(what).append(", got '").append(text).append("'");
  return Status::InvalidArgument(std::move(message));
}

Status OutOfRange(std::string_view text, const std::string& min,
                  const std::string& max) {
  std::string message = "'";
  message.append(text).append("' is out of range [").append(min);
  message.append(", ").append(max).append("]");
  return Status::InvalidArgument(std::move(message));
}

Status UnknownChoice(std::string_view text, const std::string& names) {
  std::string message = "unknown value '";
  message.append(text).append("' (expected ").append(names).append(")");
  return Status::InvalidArgument(std::move(message));
}

}  // namespace flags_internal

Status ParseValue(std::string_view text, std::string* out) {
  *out = std::string(text);
  return Status::Ok();
}

Status ParseValue(std::string_view text, bool* out) {
  if (text == "true" || text == "1" || text == "yes") {
    *out = true;
  } else if (text == "false" || text == "0" || text == "no") {
    *out = false;
  } else {
    return flags_internal::Malformed("a bool", text);
  }
  return Status::Ok();
}

Status ParseValue(std::string_view text, double* out) {
  // strtod needs a terminator; it also accepts the exponent and hex forms
  // the flags have always taken.
  const std::string copy(text);
  char* end = nullptr;
  const double parsed = std::strtod(copy.c_str(), &end);
  if (copy.empty() || *end != '\0') {
    return flags_internal::Malformed("a number", text);
  }
  if (!std::isfinite(parsed)) {
    return flags_internal::Malformed("a finite number", text);
  }
  *out = parsed;
  return Status::Ok();
}

FlagParser::Flag* FlagParser::Find(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  positional_.clear();
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    Flag* flag = Find(name);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!has_value) {
      if (flag->is_bool) {
        value = "true";  // Bare boolean flag.
      } else if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for --" + name);
      } else {
        value = argv[++i];
      }
    }
    if (Status status = flag->set(value); !status.ok()) {
      return Status::InvalidArgument("--" + name + ": " + status.message());
    }
  }
  return Status::Ok();
}

std::string FlagParser::Usage(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n";
  for (const Flag& flag : flags_) {
    out += "  --" + flag.name + " (default: " + flag.default_text + ")\n      " +
           flag.help + "\n";
  }
  return out;
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

}  // namespace cascache::util
