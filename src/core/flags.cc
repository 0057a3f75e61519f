#include "src/core/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace adpa {

std::optional<int64_t> ParseDecimal(std::string_view text, int64_t lo,
                                    int64_t hi) {
  if (text.empty()) return std::nullopt;
  int64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const int64_t digit = c - '0';
    // Rejects value*10 + digit > hi without computing it.
    if (digit > hi || value > (hi - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  if (value < lo) return std::nullopt;
  return value;
}

std::optional<double> ParseReal(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

bool Flags::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: positional argument %s\n", argv[i]);
      return false;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag, e.g. --verbose
    }
  }
  return true;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

bool Flags::Has(const std::string& name) const {
  read_.insert(name);
  return values_.count(name) > 0;
}

std::vector<std::string> Flags::Unread() const {
  std::vector<std::string> unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) unread.push_back(name);
  }
  return unread;
}

bool AllFlagsRead(const Flags& flags) {
  const std::vector<std::string> unread = flags.Unread();
  for (const std::string& name : unread) {
    std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
  }
  return unread.empty();
}

std::optional<int64_t> CountFlag(const Flags& flags, const char* name,
                                 int64_t fallback, int64_t lo, int64_t hi) {
  if (!flags.Has(name)) return fallback;
  const std::string text = flags.GetString(name, "");
  const std::optional<int64_t> value = ParseDecimal(text, lo, hi);
  if (!value.has_value()) {
    std::fprintf(stderr, "error: --%s=%s is not an integer in %lld..%lld\n",
                 name, text.c_str(), static_cast<long long>(lo),
                 static_cast<long long>(hi));
  }
  return value;
}

std::optional<bool> SwitchFlag(const Flags& flags, const char* name) {
  if (!flags.Has(name)) return false;
  const std::string text = flags.GetString(name, "");
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  std::fprintf(stderr,
               "error: --%s=%s is not a switch (true, 1, yes, false, 0, no)\n",
               name, text.c_str());
  return std::nullopt;
}

}  // namespace adpa
