#pragma once
#include <cstdint>
#include <map>
#include <string>

namespace adpa {

/// Minimal `--key=value` / `--key value` command-line parser shared by the
/// tools, bench and example binaries. Parse rejects only positional
/// arguments; unknown flags are accepted and never read, so a misspelled or
/// retired flag silently runs the default config.
class Flags {
 public:
  /// Parses argv. Returns false and prints a diagnostic on malformed input.
  bool Parse(int argc, char** argv);

  /// Typed getters with defaults. Malformed numeric values fall back to the
  /// default after printing a warning.
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

