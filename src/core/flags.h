#pragma once
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

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
/// tools and bench binaries. Has and GetString, which the readers below go
/// through, record each name asked about, so a binary that has read all its
/// flags finds a misspelled or retired one in Unread() and refuses it.
class Flags {
 public:
  /// Parses argv. Returns false and prints an error line on a positional
  /// argument.
  bool Parse(int argc, char** argv);

  /// The raw value of `name`, or `default_value` when it is unset.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;

  bool Has(const std::string& name) const;

  /// The given flags no Has or GetString call asked about, in name order.
  std::vector<std::string> Unread() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  // names asked about; not a value
};

/// Prints "error: unknown flag --name" for each of flags.Unread() and
/// returns whether there was none. Call it after every flag is read.
bool AllFlagsRead(const Flags& flags);

/// The widest CountFlag bounds: a count the program keeps in an int, and a
/// seed, which is read as an int64 and handed to Rng unsigned.
inline constexpr int64_t kMaxCount = std::numeric_limits<int32_t>::max();
inline constexpr int64_t kMaxSeed = std::numeric_limits<int64_t>::max();

/// The integer flag `name` read through ParseDecimal: `fallback` when it is
/// unset, nullopt (after an error line) when it is not a decimal in
/// [lo, hi].
std::optional<int64_t> CountFlag(const Flags& flags, const char* name,
                                 int64_t fallback, int64_t lo, int64_t hi);

/// The on/off flag `name`: false when it is unset; true when it is bare or
/// `true`, `1` or `yes`; false for `false`, `0` or `no`; nullopt (after an
/// error line) for anything else.
std::optional<bool> SwitchFlag(const Flags& flags, const char* name);

/// The real flag `name` read through ParseReal as a `Real` (float or
/// double): `fallback` when it is unset, nullopt (after an error line) when
/// it is not a decimal with a finite `Real` value that passes `in_range`,
/// which `range` states. The range is checked on the value the program
/// stores, so 0.9999999999 (1.0f) is not a float dropout below 1, nor 1e-50
/// (0.0f) a positive float learning rate.
template <typename Real>
std::optional<Real> RealFlag(const Flags& flags, const char* name,
                             Real fallback,
                             std::type_identity_t<bool (*)(Real)> in_range,
                             const char* range) {
  if (!flags.Has(name)) return fallback;
  const std::string text = flags.GetString(name, "");
  const std::optional<double> value = ParseReal(text);
  if (!value.has_value() ||
      std::fabs(*value) > std::numeric_limits<Real>::max() ||
      !in_range(static_cast<Real>(*value))) {
    std::fprintf(stderr, "error: --%s=%s is not a finite real with %s\n",
                 name, text.c_str(), range);
    return std::nullopt;
  }
  return static_cast<Real>(*value);
}

}  // namespace adpa
