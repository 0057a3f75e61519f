#include "src/core/chaos.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/core/hash.h"
#include "src/core/random.h"

namespace adpa::failpoint {
namespace {

Status BadSpec(const std::string& what) {
  return Status::InvalidArgument("chaos spec: " + what +
                                 " (want <seed>:<intensity>[:<prefix>,...])");
}

/// Uniform double in [0, 1) from the top 53 bits of one draw. It draws from
/// the free SplitMix64, not from an Rng, so a schedule is a pure function
/// of the spec with no coupling to Rng's stream layout.
double UnitDraw(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

bool MatchesPrefixes(const std::string& name,
                     const std::vector<std::string>& prefixes) {
  if (prefixes.empty()) return true;
  for (const auto& prefix : prefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

Status ValidateSpec(const ChaosSpec& spec) {
  if (!(spec.intensity > 0.0) || spec.intensity > 1.0) {
    return BadSpec("intensity must lie in (0, 1]");
  }
  const auto catalog = Catalog();
  for (const auto& prefix : spec.prefixes) {
    if (prefix.empty()) return BadSpec("empty prefix");
    bool matched = false;
    for (const auto& entry : catalog) {
      if (entry.first.rfind(prefix, 0) == 0) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      return BadSpec("prefix \"" + prefix +
                     "\" matches no failpoint catalog name");
    }
  }
  return Status::OK();
}

}  // namespace

Result<ChaosSpec> ParseChaosSpec(const std::string& text) {
  // Field 1: seed (decimal uint64).
  const size_t colon1 = text.find(':');
  if (colon1 == std::string::npos) {
    return BadSpec("missing ':' after seed");
  }
  const std::string seed_text = text.substr(0, colon1);
  if (seed_text.empty() || seed_text.size() > 20 ||
      seed_text.find_first_not_of("0123456789") != std::string::npos) {
    return BadSpec("seed must be a decimal uint64, got \"" + seed_text +
                   "\"");
  }
  errno = 0;
  ChaosSpec spec;
  spec.seed = std::strtoull(seed_text.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return BadSpec("seed \"" + seed_text + "\" overflows uint64");
  }

  // Field 2: intensity (plain decimal, no exponents/signs/hex).
  const size_t colon2 = text.find(':', colon1 + 1);
  const std::string intensity_text =
      text.substr(colon1 + 1, (colon2 == std::string::npos
                                   ? text.size()
                                   : colon2) -
                                  colon1 - 1);
  if (intensity_text.empty() || intensity_text.size() > 10 ||
      intensity_text.find_first_not_of("0123456789.") != std::string::npos ||
      intensity_text.find('.') != intensity_text.rfind('.')) {
    return BadSpec("intensity must be a decimal in (0, 1], got \"" +
                   intensity_text + "\"");
  }
  spec.intensity = std::strtod(intensity_text.c_str(), nullptr);

  // Field 3 (optional): comma-separated catalog-name prefixes.
  if (colon2 != std::string::npos) {
    const std::string prefix_field = text.substr(colon2 + 1);
    size_t start = 0;
    while (start <= prefix_field.size()) {
      size_t end = prefix_field.find(',', start);
      if (end == std::string::npos) end = prefix_field.size();
      const std::string prefix = prefix_field.substr(start, end - start);
      start = end + 1;
      if (prefix.empty()) return BadSpec("empty prefix");
      if (prefix.find_first_not_of(
              "abcdefghijklmnopqrstuvwxyz0123456789._") !=
          std::string::npos) {
        return BadSpec("prefix \"" + prefix + "\" has characters outside "
                       "[a-z0-9._]");
      }
      spec.prefixes.push_back(prefix);
    }
  }

  ADPA_RETURN_IF_ERROR(ValidateSpec(spec));
  return spec;
}

Result<ChaosSchedule> BuildChaosSchedule(const ChaosSpec& spec) {
  ADPA_RETURN_IF_ERROR(ValidateSpec(spec));
  ChaosSchedule schedule;
  schedule.seed = spec.seed;
  schedule.intensity = spec.intensity;
  for (const auto& entry : Catalog()) {
    const std::string& name = entry.first;
    if (!MatchesPrefixes(name, spec.prefixes)) continue;
    ++schedule.eligible;

    // Per-point stream keyed by (seed, name): the point's config never
    // depends on catalog order or on which other points are eligible.
    uint64_t state = spec.seed ^ Fnv1a64(name.data(), name.size());
    (void)SplitMix64(&state);  // decorrelate weak seed^hash mixes

    if (UnitDraw(&state) >= spec.intensity) continue;

    // `.short` points are interpreted by their seam as "cap this IO at one
    // byte" whenever the hook fires — the only sensible action is error.
    const bool is_short_point =
        name.size() >= 6 && name.compare(name.size() - 6, 6, ".short") == 0;
    const double action_draw = UnitDraw(&state);
    std::string action;
    if (!is_short_point && action_draw < 0.25) {
      const uint64_t delay_ms = 1 + SplitMix64(&state) % 9;
      action = "delay(" + std::to_string(delay_ms) + ")";
    } else {
      (void)SplitMix64(&state);  // keep the draw count action-invariant
      action = "error(chaos)";
    }

    // Probabilistic trigger: denser as intensity rises. At intensity 1 a
    // point fires every 2nd-5th hit; at 0.1 roughly every 2nd-55th. The
    // floor is 2, not 1, so no point fires on literally every hit — a
    // net.accept that always fails would make soak liveness a coin toss
    // instead of a certainty.
    const uint64_t span =
        4 + static_cast<uint64_t>(60.0 * (1.0 - spec.intensity));
    const uint64_t one_in = 2 + SplitMix64(&state) % span;
    schedule.points.push_back(
        {name, action + "@1in" + std::to_string(one_in)});
  }
  return schedule;
}

std::string ChaosSchedule::Describe() const {
  char header[160];
  std::snprintf(header, sizeof(header),
                "chaos: seed=%llu intensity=%g armed %zu/%llu eligible "
                "points\n",
                static_cast<unsigned long long>(seed), intensity,
                points.size(), static_cast<unsigned long long>(eligible));
  std::string out = header;
  for (const auto& point : points) {
    out += "chaos: " + point.name + "=" + point.spec + "\n";
  }
  return out;
}

#if ADPA_FAILPOINTS_ENABLED

Result<ChaosSchedule> ChaosConfigure(const ChaosSpec& spec) {
  auto schedule = BuildChaosSchedule(spec);
  if (!schedule.ok()) return schedule;
  for (const auto& point : schedule->points) {
    // Generated specs use the standard grammar over catalog names, so this
    // can only fail if the generator and parser drift — surface it loudly.
    ADPA_RETURN_IF_ERROR(Configure(point.name, point.spec));
  }
  return schedule;
}

#endif  // ADPA_FAILPOINTS_ENABLED

}  // namespace adpa::failpoint
