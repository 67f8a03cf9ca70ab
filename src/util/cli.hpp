// Small command-line flag parser for the example and bench binaries.
//
// Supports --name=value, --name value, and boolean --flag / --no-flag.
// Unknown flags are an error so typos in experiment parameters fail loudly
// instead of silently running the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mbts {

/// Parses a whole token as a non-negative decimal integer. Rejects a
/// leading '-', trailing junk ("2x"), overflow and the empty string, so a
/// count flag never wraps to ~2^64 or silently drops characters the way
/// std::stoull does. The rule behind CliParser::get_uint, exposed for
/// tools that parse argv by hand.
std::optional<std::uint64_t> parse_uint(std::string_view text);

class CliParser {
 public:
  CliParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Registers a flag with a default value (rendered in --help).
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv. Returns false (after printing usage) on --help or error.
  bool parse(int argc, const char* const* argv);

  /// Accessors; all MBTS_CHECK that the flag was registered.
  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// Non-negative integer accessor for count-like flags (--jobs, --shards):
  /// rejects negative and non-numeric values with a usage-style message
  /// instead of letting a -1 wrap to ~2^64 in a size_t cast downstream.
  std::uint64_t get_uint(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Positional arguments left after flag parsing.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };

  const Flag& find(const std::string& name) const;
  static bool is_boolean(const Flag& flag);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mbts
