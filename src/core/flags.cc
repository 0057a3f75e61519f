#include "src/core/flags.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>

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
      std::cerr << "Unexpected positional argument: " << arg << "\n";
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
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const int64_t parsed = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || end == nullptr || *end != '\0') {
    std::cerr << "Warning: flag --" << name << "=" << it->second
              << " is not an integer; using default " << default_value << "\n";
    return default_value;
  }
  return parsed;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const double parsed = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || end == nullptr || *end != '\0') {
    std::cerr << "Warning: flag --" << name << "=" << it->second
              << " is not a number; using default " << default_value << "\n";
    return default_value;
  }
  return parsed;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

}  // namespace adpa
