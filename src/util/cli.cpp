#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/check.hpp"

namespace mbts {

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  std::uint64_t v = 0;
  // from_chars<uint64_t> rejects a leading '-' outright; requiring ptr to
  // reach the end rejects trailing junk.
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size())
    return std::nullopt;
  return v;
}

void CliParser::add_flag(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  MBTS_CHECK_MSG(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{default_value, help, std::nullopt};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = body.find('='); eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    if (!flags_.count(body)) {
      // --no-foo negation, valid only for flags with a boolean default:
      // --no-jobs must be an unknown-flag error, not jobs="false".
      if (body.rfind("no-", 0) == 0 && flags_.count(body.substr(3))) {
        Flag& target = flags_[body.substr(3)];
        if (!is_boolean(target)) {
          std::cerr << "--" << body << ": flag --" << body.substr(3)
                    << " is not a boolean and cannot be negated\n"
                    << usage();
          return false;
        }
        if (has_value) {
          std::cerr << "--" << body << " does not take a value\n" << usage();
          return false;
        }
        target.value = "false";
        continue;
      }
      std::cerr << "unknown flag --" << body << "\n" << usage();
      return false;
    }
    Flag& flag = flags_[body];
    if (has_value) {
      flag.value = value;
    } else if (is_boolean(flag)) {
      // Bare boolean flag.
      flag.value = "true";
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flag.value = argv[++i];
    } else {
      // A value-typed flag at end of argv (or followed by another --flag)
      // used to fall into the boolean branch and silently become "true",
      // which only exploded later inside get_int/get_double.
      std::cerr << "flag --" << body << " requires a value\n" << usage();
      return false;
    }
  }
  return true;
}

bool CliParser::is_boolean(const Flag& flag) {
  return flag.default_value == "true" || flag.default_value == "false";
}

const CliParser::Flag& CliParser::find(const std::string& name) const {
  auto it = flags_.find(name);
  MBTS_CHECK_MSG(it != flags_.end(), "flag not registered: " + name);
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  const Flag& flag = find(name);
  return flag.value.value_or(flag.default_value);
}

double CliParser::get_double(const std::string& name) const {
  const std::string s = get_string(name);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  MBTS_CHECK_MSG(end && *end == '\0', "flag --" + name + " is not a number: " + s);
  return v;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string s = get_string(name);
  std::int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  MBTS_CHECK_MSG(ec == std::errc() && ptr == s.data() + s.size(),
                 "flag --" + name + " is not an integer: " + s);
  return v;
}

std::uint64_t CliParser::get_uint(const std::string& name) const {
  const std::string s = get_string(name);
  const std::optional<std::uint64_t> v = parse_uint(s);
  MBTS_CHECK_MSG(v.has_value(),
                 "flag --" + name + " must be a non-negative integer: " + s);
  return *v;
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string s = get_string(name);
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  MBTS_CHECK_MSG(false, "flag --" + name + " is not a boolean: " + s);
  return false;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nflags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << "\n";
  }
  return os.str();
}

}  // namespace mbts
