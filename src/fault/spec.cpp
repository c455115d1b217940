#include "fault/spec.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "util/parse.h"

namespace aethereal::fault {

namespace {

Status ParseRate(const std::string& token, const char* what, double* out) {
  const auto rate = ParseDouble(token);
  if (!rate.ok() || *rate < 0.0 || *rate > 1.0) {
    return InvalidArgumentError(std::string(what) +
                                " rate must be a number in [0, 1], got '" +
                                token + "'");
  }
  *out = *rate;
  return OkStatus();
}

Status ParseStall(const std::vector<std::string>& tokens, const char* what,
                  std::vector<StallWindow>* out) {
  // <what> ID stall START LENGTH
  if (tokens.size() != 5 || tokens[2] != "stall") {
    return InvalidArgumentError(std::string("expected '") + what +
                                " ID stall START LENGTH'");
  }
  const auto id = ParseInt64(tokens[1]);
  const auto start = ParseInt64(tokens[3]);
  const auto length = ParseInt64(tokens[4]);
  if (!id.ok() || *id < 0 || *id > std::numeric_limits<std::int32_t>::max()) {
    return InvalidArgumentError(std::string(what) +
                                " id must be an integer in [0, 2^31), got '" +
                                tokens[1] + "'");
  }
  if (!start.ok() || *start < 0 || *start > kMaxCycles) {
    return InvalidArgumentError("stall start must be a non-negative cycle "
                                "<= 2^40, got '" + tokens[3] + "'");
  }
  if (!length.ok() || *length < 1 || *length > kMaxCycles) {
    return InvalidArgumentError("stall length must be a positive cycle "
                                "count <= 2^40, got '" + tokens[4] + "'");
  }
  out->push_back(StallWindow{static_cast<std::int32_t>(*id), *start, *length});
  return OkStatus();
}

}  // namespace

Status ApplyFaultDirective(const std::vector<std::string>& tokens,
                           FaultSpec* spec) {
  if (tokens.empty()) return OkStatus();
  const std::string& kind = tokens[0];
  if (kind == "seed") {
    const auto seed = ParseUint64(tokens.size() == 2 ? tokens[1] : "");
    if (tokens.size() != 2 || !seed.ok()) {
      return InvalidArgumentError(
          "expected 'seed N' with a non-negative integer");
    }
    spec->seed = *seed;
    return OkStatus();
  }
  if (kind == "link") {
    // link corrupt RATE | link drop RATE
    if (tokens.size() != 3 ||
        (tokens[1] != "corrupt" && tokens[1] != "drop")) {
      return InvalidArgumentError(
          "expected 'link corrupt RATE' or 'link drop RATE'");
    }
    double* target = tokens[1] == "corrupt" ? &spec->link_corrupt_rate
                                            : &spec->link_drop_rate;
    return ParseRate(tokens[2], tokens[1] == "corrupt" ? "link corrupt"
                                                       : "link drop",
                     target);
  }
  if (kind == "router") return ParseStall(tokens, "router",
                                          &spec->router_stalls);
  if (kind == "ni") return ParseStall(tokens, "ni", &spec->ni_stalls);
  if (kind == "config") {
    // config drop RATE | config delay RATE CYCLES
    if (tokens.size() == 3 && tokens[1] == "drop") {
      return ParseRate(tokens[2], "config drop", &spec->config_drop_rate);
    }
    if (tokens.size() == 4 && tokens[1] == "delay") {
      Status status =
          ParseRate(tokens[2], "config delay", &spec->config_delay_rate);
      if (!status.ok()) return status;
      const auto cycles = ParseInt64(tokens[3]);
      if (!cycles.ok() || *cycles < 1 || *cycles > kMaxCycles) {
        return InvalidArgumentError("config delay cycles must be a positive "
                                    "integer <= 2^40, got '" + tokens[3] +
                                    "'");
      }
      spec->config_delay_cycles = *cycles;
      return OkStatus();
    }
    return InvalidArgumentError(
        "expected 'config drop RATE' or 'config delay RATE CYCLES'");
  }
  if (kind == "retry") {
    // retry timeout T max R backoff B
    if (tokens.size() != 7 || tokens[1] != "timeout" || tokens[3] != "max" ||
        tokens[5] != "backoff") {
      return InvalidArgumentError(
          "expected 'retry timeout T max R backoff B'");
    }
    const auto timeout = ParseInt64(tokens[2]);
    const auto max_retries = ParseInt64(tokens[4]);
    const auto backoff = ParseInt64(tokens[6]);
    if (!timeout.ok() || *timeout < 1 || *timeout > kMaxCycles) {
      return InvalidArgumentError("retry timeout must be a positive cycle "
                                  "count <= 2^40, got '" + tokens[2] + "'");
    }
    if (!max_retries.ok() || *max_retries < 0 || *max_retries > 64) {
      return InvalidArgumentError("retry max must be in [0, 64], got '" +
                                  tokens[4] + "'");
    }
    if (!backoff.ok() || *backoff < 1 || *backoff > 8) {
      return InvalidArgumentError("retry backoff must be in [1, 8], got '" +
                                  tokens[6] + "'");
    }
    spec->retry.enabled = true;
    spec->retry.timeout = *timeout;
    spec->retry.max_retries = static_cast<int>(*max_retries);
    spec->retry.backoff = static_cast<int>(*backoff);
    return OkStatus();
  }
  return InvalidArgumentError("unknown fault directive '" + kind + "'");
}

namespace {

Status CheckStallTargets(const std::vector<StallWindow>& windows,
                         const char* what, int count) {
  for (const StallWindow& window : windows) {
    if (window.id >= count) {
      return InvalidArgumentError(
          std::string("fault: ") + what + " " + std::to_string(window.id) +
          " stall targets no " + what + " of the NoC (ids 0.." +
          std::to_string(count - 1) + ")");
    }
  }
  return OkStatus();
}

}  // namespace

Status CheckFaultTargets(const FaultSpec& spec, int num_routers,
                         int num_nis) {
  if (Status s = CheckStallTargets(spec.router_stalls, "router", num_routers);
      !s.ok()) {
    return s;
  }
  return CheckStallTargets(spec.ni_stalls, "ni", num_nis);
}

Result<FaultSpec> ParseFaultText(const std::string& text) {
  FaultSpec spec;
  for (const SpecLine& line : TokenizeSpec(text)) {
    if (Status s = ApplyFaultDirective(line.tokens, &spec); !s.ok()) {
      return line.Error(s.message());
    }
  }
  return spec;
}

Result<FaultSpec> LoadFaultFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open fault file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto spec = ParseFaultText(buffer.str());
  if (!spec.ok()) {
    return InvalidArgumentError(path + ": " + spec.status().message());
  }
  return spec;
}

std::string Describe(const FaultSpec& spec) {
  std::ostringstream os;
  os << "seed " << spec.seed;
  if (spec.link_corrupt_rate > 0.0) os << ", corrupt " << spec.link_corrupt_rate;
  if (spec.link_drop_rate > 0.0) os << ", drop " << spec.link_drop_rate;
  if (!spec.router_stalls.empty())
    os << ", " << spec.router_stalls.size() << " router stall(s)";
  if (!spec.ni_stalls.empty())
    os << ", " << spec.ni_stalls.size() << " ni stall(s)";
  if (spec.config_drop_rate > 0.0) os << ", cfg drop " << spec.config_drop_rate;
  if (spec.config_delay_rate > 0.0)
    os << ", cfg delay " << spec.config_delay_rate << "x"
       << spec.config_delay_cycles;
  if (spec.retry.enabled)
    os << ", retry t=" << spec.retry.timeout << " max=" << spec.retry.max_retries
       << " b=" << spec.retry.backoff;
  return os.str();
}

namespace {

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultSpec RandomFaultSpec(std::uint64_t seed, int index, int num_routers,
                          int num_nis, Cycle duration) {
  FaultSpec spec;
  const std::uint64_t base =
      Mix64(seed ^ (static_cast<std::uint64_t>(index) * 0x9e3779b9ULL));
  spec.seed = Mix64(base);
  // Low rates: a soak workload must stay live (drops leak end-to-end
  // credits, so the expected loss per flow has to stay well under one
  // source queue of words over the run).
  spec.link_corrupt_rate =
      (Mix64(base ^ 1) % 3 != 0) ? 0.002 * ((Mix64(base ^ 2) % 4) + 1) : 0.0;
  spec.link_drop_rate =
      (Mix64(base ^ 3) % 3 != 0) ? 0.001 * ((Mix64(base ^ 4) % 3) + 1) : 0.0;
  if (num_routers > 0 && Mix64(base ^ 5) % 2 == 0) {
    const Cycle start = 200 + static_cast<Cycle>(Mix64(base ^ 6) %
                                                 static_cast<std::uint64_t>(
                                                     duration / 2 + 1));
    const Cycle length = 30 + static_cast<Cycle>(Mix64(base ^ 7) % 120);
    spec.router_stalls.push_back(StallWindow{
        static_cast<std::int32_t>(Mix64(base ^ 8) %
                                  static_cast<std::uint64_t>(num_routers)),
        start, length});
  }
  if (num_nis > 0 && Mix64(base ^ 9) % 2 == 0) {
    const Cycle start = 200 + static_cast<Cycle>(Mix64(base ^ 10) %
                                                 static_cast<std::uint64_t>(
                                                     duration / 2 + 1));
    const Cycle length = 30 + static_cast<Cycle>(Mix64(base ^ 11) % 120);
    spec.ni_stalls.push_back(StallWindow{
        static_cast<std::int32_t>(Mix64(base ^ 12) %
                                  static_cast<std::uint64_t>(num_nis)),
        start, length});
  }
  // Ensure at least one model is armed so every soak iteration injects.
  if (!spec.Enabled()) spec.link_corrupt_rate = 0.002;
  return spec;
}

}  // namespace aethereal::fault
