#pragma once
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace adpa {

/// Parses a bounded count: decimal digits only (no sign, space or
/// fraction), read as a value in [lo, hi] (requires 0 <= lo <= hi). Anything
/// else, a value past hi included, is nullopt — never a narrowed or wrapped
/// number.
std::optional<int64_t> ParseDecimal(std::string_view text, int64_t lo,
                                    int64_t hi);

/// Parses a finite decimal real: an optional '-', digits with an optional
/// fraction and exponent (std::from_chars' general format), and nothing
/// before or after it. nan, inf, a value past the double range and the
/// empty string are nullopt.
std::optional<double> ParseReal(std::string_view text);

/// Minimal `--key=value` / `--key value` command-line parser shared by the
/// tools, bench and example binaries. Parse rejects only positional
/// arguments; unknown flags are accepted and never read, so a misspelled or
/// retired flag silently runs the default config.
class Flags {
 public:
  /// Parses argv. Returns false and prints a diagnostic on malformed input.
  bool Parse(int argc, char** argv);

  /// Typed getters with defaults. Malformed numeric values, an empty one
  /// (`--lr=`) included, fall back to the default after printing a warning.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  bool Has(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace adpa

