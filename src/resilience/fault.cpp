#include "resilience/fault.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace clflow::resilience {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransferFail: return "xfer-fail";
    case FaultKind::kTransferCorrupt: return "xfer-corrupt";
    case FaultKind::kKernelHang: return "hang";
    case FaultKind::kKernelCorrupt: return "corrupt";
    case FaultKind::kFmaxDroop: return "fmax-droop";
    case FaultKind::kDeviceReset: return "reset";
  }
  return "?";
}

std::string FaultSpec::ToString() const {
  std::ostringstream os;
  os << FaultKindName(kind);
  if (kind == FaultKind::kFmaxDroop) {
    os << ':' << factor;
    return os.str();
  }
  os << ':' << target << ':' << index;
  if (times != 1) os << ':' << times;
  return os.str();
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "seed=" << seed;
  for (const FaultSpec& s : specs) os << ' ' << s.ToString();
  return os.str();
}

FaultSpec ParseFaultSpec(const std::string& spec) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : spec) {
    if (c == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  if (parts.empty() || parts[0].empty()) {
    throw Error("empty fault spec");
  }

  // Every numeric field must be consumed whole and fit its target type:
  // "1x", "0.5abc" and an index past int64 are typos, not specs.
  auto to_int = [&spec](const std::string& s, std::int64_t lo,
                        std::int64_t hi, const char* what) {
    std::int64_t v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || end != s.data() + s.size()) {
      throw Error("fault spec '" + spec + "': '" + s + "' is not an integer");
    }
    if (v < lo || v > hi) {
      throw Error("fault spec '" + spec + "': " + what + " must be in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return v;
  };

  FaultSpec f;
  const std::string& kind = parts[0];
  if (kind == "fmax-droop") {
    if (parts.size() != 2) {
      throw Error("fault spec '" + spec + "': expected fmax-droop:<factor>");
    }
    f.kind = FaultKind::kFmaxDroop;
    const std::string& text = parts[1];
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), f.factor);
    if (ec != std::errc() || end != text.data() + text.size()) {
      throw Error("fault spec '" + spec + "': bad factor '" + text + "'");
    }
    if (!(f.factor > 0.0) || f.factor > 1.0) {
      throw Error("fault spec '" + spec + "': factor must be in (0, 1]");
    }
    return f;
  }

  if (kind == "xfer-fail" || kind == "xfer-corrupt") {
    f.kind = kind == "xfer-fail" ? FaultKind::kTransferFail
                                 : FaultKind::kTransferCorrupt;
    if (parts.size() < 2 || (parts[1] != "write" && parts[1] != "read")) {
      throw Error("fault spec '" + spec + "': expected " + kind +
                  ":<write|read>[:index[:times]]");
    }
  } else if (kind == "hang" || kind == "corrupt" || kind == "reset") {
    f.kind = kind == "hang"      ? FaultKind::kKernelHang
             : kind == "corrupt" ? FaultKind::kKernelCorrupt
                                 : FaultKind::kDeviceReset;
    // Only a corruption repeats: hang and reset take no `times`.
    const std::size_t max_fields = kind == "corrupt" ? 4 : 3;
    if (parts.size() < 2 || parts[1].empty() || parts.size() > max_fields) {
      throw Error("fault spec '" + spec + "': expected " + kind +
                  (kind == "corrupt" ? ":<kernel>[:index[:times]]"
                                     : ":<kernel>[:index]"));
    }
  } else {
    throw Error("fault spec '" + spec + "': unknown kind '" + kind + "'");
  }
  if (parts.size() > 4) {
    throw Error("fault spec '" + spec + "': too many fields");
  }
  f.target = parts[1];
  if (parts.size() > 2) {
    f.index = to_int(parts[2], 0, std::numeric_limits<std::int64_t>::max(),
                     "index");
  }
  if (parts.size() > 3) {
    f.times = static_cast<int>(
        to_int(parts[3], 1, std::numeric_limits<int>::max(), "times"));
  }
  return f;
}

std::string InjectedFault::ToString() const {
  std::ostringstream os;
  os << FaultKindName(kind) << " target=" << target
     << " occurrence=" << occurrence << " attempt=" << attempt;
  if (mask != 0) os << " mask=0x" << std::hex << mask;
  return os.str();
}

SimTime RetryPolicy::BackoffFor(int attempt) const {
  return SimTime::Us(backoff_base.us() *
                     std::pow(backoff_multiplier, attempt));
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind == FaultKind::kFmaxDroop) {
      fmax_factor_ *= spec.factor;
      injected_.push_back({spec.kind, "fmax", 0, 0, 0});
    }
  }
}

TransferFault FaultInjector::OnTransferAttempt(bool is_write, int attempt,
                                               std::int64_t num_words) {
  std::int64_t& count = is_write ? write_count_ : read_count_;
  if (attempt == 0) ++count;
  const std::int64_t occurrence = count - 1;
  const std::string dir = is_write ? "write" : "read";

  TransferFault fault;
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind != FaultKind::kTransferFail &&
        spec.kind != FaultKind::kTransferCorrupt) {
      continue;
    }
    if (spec.target != dir || spec.index != occurrence ||
        attempt >= spec.times) {
      continue;
    }
    if (spec.kind == FaultKind::kTransferFail) {
      fault.action = TransferFault::Action::kFail;
    } else {
      fault.action = TransferFault::Action::kCorrupt;
      // Never a zero mask: the corruption must be observable.
      fault.mask = static_cast<std::uint32_t>(rng_.NextU64()) | 1u;
      fault.word_index =
          num_words > 0 ? static_cast<std::int64_t>(
                              rng_.Below(static_cast<std::uint64_t>(num_words)))
                        : 0;
    }
    injected_.push_back({spec.kind, dir, occurrence, attempt, fault.mask});
    return fault;  // first matching spec wins
  }
  return fault;
}

KernelFault FaultInjector::OnKernelDispatch(const std::string& name) {
  const std::int64_t invocation = kernel_invocations_[name]++;
  KernelFault fault;
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.target != name || spec.index != invocation) continue;
    switch (spec.kind) {
      case FaultKind::kKernelHang:
        fault.hang = true;
        injected_.push_back({spec.kind, name, invocation, 0, 0});
        break;
      case FaultKind::kKernelCorrupt:
        fault.corrupt_times = spec.times;
        injected_.push_back({spec.kind, name, invocation, 0, 0});
        break;
      case FaultKind::kDeviceReset:
        fault.reset = true;
        injected_.push_back({spec.kind, name, invocation, 0, 0});
        break;
      default:
        break;
    }
  }
  return fault;
}

}  // namespace clflow::resilience
