#include "core/types.hpp"

#include <algorithm>
#include <iterator>
#include <optional>

#include "util/strings.hpp"

namespace goofi::core {

namespace {

/// Calls `fn` on each `sep`-separated field of `text`, empty fields included
/// (util::Split's fields, without copying them). Stops at the first error.
template <typename Fn>
util::Status ForEachField(std::string_view text, char sep, Fn&& fn) {
  for (size_t start = 0;;) {
    const size_t end = std::min(text.find(sep, start), text.size());
    GOOFI_RETURN_IF_ERROR(fn(text.substr(start, end - start)));
    if (end == text.size()) return util::Status::Ok();
    start = end + 1;
  }
}

}  // namespace

const char* TechniqueName(Technique technique) {
  switch (technique) {
    case Technique::kScifi:
      return "scifi";
    case Technique::kSwifiPreRuntime:
      return "swifi_preruntime";
    case Technique::kSwifiRuntime:
      return "swifi_runtime";
  }
  return "?";
}

util::Result<Technique> TechniqueFromName(const std::string& name) {
  for (Technique t : {Technique::kScifi, Technique::kSwifiPreRuntime,
                      Technique::kSwifiRuntime}) {
    if (name == TechniqueName(t)) return t;
  }
  return util::ParseError("unknown technique: " + name);
}

const char* FaultModelName(FaultModelKind kind) {
  switch (kind) {
    case FaultModelKind::kTransientBitFlip:
      return "transient_bitflip";
    case FaultModelKind::kIntermittentBitFlip:
      return "intermittent_bitflip";
    case FaultModelKind::kPermanentStuckAt:
      return "permanent_stuckat";
  }
  return "?";
}

util::Result<FaultModelKind> FaultModelFromName(std::string_view name) {
  for (FaultModelKind k :
       {FaultModelKind::kTransientBitFlip, FaultModelKind::kIntermittentBitFlip,
        FaultModelKind::kPermanentStuckAt}) {
    if (name == FaultModelName(k)) return k;
  }
  return util::ParseError("unknown fault model: " + std::string(name));
}

const char* LogModeName(LogMode mode) {
  return mode == LogMode::kNormal ? "normal" : "detail";
}

std::string FaultLocationSelector::ToString() const {
  return cell_prefix.empty() ? chain : chain + ":" + cell_prefix;
}

util::Result<FaultLocationSelector> FaultLocationSelector::Parse(
    const std::string& text) {
  FaultLocationSelector out;
  const size_t colon = text.find(':');
  if (colon == std::string::npos) {
    out.chain = text;
  } else {
    out.chain = text.substr(0, colon);
    out.cell_prefix = text.substr(colon + 1);
  }
  if (out.chain.empty()) return util::ParseError("empty location selector");
  return out;
}

std::string FaultInstance::Describe() const {
  std::string when = util::Format("@instr %llu",
                                  static_cast<unsigned long long>(inject_instr));
  std::string what = FaultModelName(kind);
  if (kind == FaultModelKind::kPermanentStuckAt) {
    what += stuck_value ? "(1)" : "(0)";
  }
  if (IsScanFault()) {
    return util::Format("%s %s[%u] (%s) %s", what.c_str(), chain.c_str(),
                        chain_bit, cell_name.c_str(), when.c_str());
  }
  return util::Format("%s mem[0x%08x].bit%u %s", what.c_str(), address, bit,
                      when.c_str());
}

std::string FaultInstance::Serialize() const {
  return util::Format("%s,%s,%u,%s,%u,%u,%llu,%d", FaultModelName(kind),
                      chain.c_str(), chain_bit, cell_name.c_str(), address, bit,
                      static_cast<unsigned long long>(inject_instr),
                      stuck_value ? 1 : 0);
}

util::Result<FaultInstance> FaultInstance::Parse(std::string_view text) {
  std::string_view fields[8];
  size_t count = 0;
  (void)ForEachField(text, ',', [&](std::string_view field) {
    if (count < std::size(fields)) fields[count] = field;
    ++count;
    return util::Status::Ok();
  });
  if (count != std::size(fields)) {
    return util::ParseError("bad FaultInstance encoding: " + std::string(text));
  }
  FaultInstance out;
  auto kind = FaultModelFromName(fields[0]);
  if (!kind.ok()) return kind.status();
  out.kind = kind.value();
  out.chain = fields[1];
  const auto chain_bit = util::ParseInt(fields[2]);
  const auto address = util::ParseInt(fields[4]);
  const auto bit = util::ParseInt(fields[5]);
  const auto inject = util::ParseInt(fields[6]);
  const auto stuck = util::ParseInt(fields[7]);
  if (!chain_bit || !address || !bit || !inject || !stuck) {
    return util::ParseError("bad FaultInstance numbers: " + std::string(text));
  }
  out.chain_bit = static_cast<uint32_t>(*chain_bit);
  out.cell_name = fields[3];
  out.address = static_cast<uint32_t>(*address);
  out.bit = static_cast<uint32_t>(*bit);
  out.inject_instr = static_cast<uint64_t>(*inject);
  out.stuck_value = *stuck != 0;
  return out;
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kDetected:
      return "detected";
    case Outcome::kEscaped:
      return "escaped";
    case Outcome::kLatent:
      return "latent";
    case Outcome::kOverwritten:
      return "overwritten";
  }
  return "?";
}

// --- LoggedState serialization ---------------------------------------------
// Format: semicolon-separated key=value pairs; scan images as chain@bits;
// outputs as comma-separated hex words.

std::string LoggedState::Serialize() const {
  std::string out;
  out += util::Format("halted=%d;detected=%d;edm=%s;code=%d;timeout=%d;", halted,
                      detected, edm.empty() ? "none" : edm.c_str(), edm_code,
                      timed_out);
  out += util::Format("envfail=%d;cycles=%llu;instret=%llu;iters=%d;",
                      env_failed, static_cast<unsigned long long>(cycles),
                      static_cast<unsigned long long>(instret), iterations);
  out += "outputs=";
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (i > 0) out += ",";
    out += util::Format("%08x", outputs[i]);
  }
  out += ";";
  for (const auto& [chain, bits] : scan_images) {
    out += "scan." + chain + "=" + bits + ";";
  }
  return out;
}

namespace {

/// The integer-valued keys of the stateVector and where each value goes.
struct IntegerField {
  std::string_view key;
  void (*store)(LoggedStateView& state, int64_t value);
};

constexpr IntegerField kIntegerFields[] = {
    {"halted", [](LoggedStateView& s, int64_t v) { s.halted = v != 0; }},
    {"detected", [](LoggedStateView& s, int64_t v) { s.detected = v != 0; }},
    {"timeout", [](LoggedStateView& s, int64_t v) { s.timed_out = v != 0; }},
    {"envfail", [](LoggedStateView& s, int64_t v) { s.env_failed = v != 0; }},
    {"code",
     [](LoggedStateView& s, int64_t v) {
       s.edm_code = static_cast<int32_t>(v);
     }},
    {"cycles",
     [](LoggedStateView& s, int64_t v) {
       s.cycles = static_cast<uint64_t>(v);
     }},
    {"instret",
     [](LoggedStateView& s, int64_t v) {
       s.instret = static_cast<uint64_t>(v);
     }},
    {"iters",
     [](LoggedStateView& s, int64_t v) { s.iterations = static_cast<int>(v); }},
};

/// A stateVector number as util::ParseInt reads it: a scalar (`base` 10),
/// or an output word (`base` 16, read as if prefixed with "0x"). The stored
/// form, plain digits that cannot overflow, is converted here; anything
/// else goes through ParseInt itself.
std::optional<int64_t> ParseNumber(std::string_view digits, int base) {
  const size_t max_digits = base == 10 ? 18 : 16;
  if (!digits.empty() && digits.size() <= max_digits) {
    uint64_t value = 0;
    bool plain = true;
    for (const char c : digits) {
      const int digit = c >= '0' && c <= '9'                ? c - '0'
                        : base == 16 && c >= 'a' && c <= 'f' ? c - 'a' + 10
                        : base == 16 && c >= 'A' && c <= 'F' ? c - 'A' + 10
                                                             : -1;
      if (digit < 0) {
        plain = false;
        break;
      }
      value = value * static_cast<uint64_t>(base) +
              static_cast<uint64_t>(digit);
    }
    if (plain) return static_cast<int64_t>(value);
  }
  return util::ParseInt(base == 10 ? std::string(digits)
                                   : "0x" + std::string(digits));
}

}  // namespace

// One pass over the text: every field is a string_view into it.
util::Status LoggedStateView::Parse(std::string_view text) {
  halted = detected = timed_out = env_failed = false;
  edm = {};
  edm_code = 0;
  cycles = instret = 0;
  iterations = 0;
  outputs.clear();
  scan_images.clear();
  const auto parse_pair = [this](std::string_view pair) {
    if (pair.empty()) return util::Status::Ok();
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return util::ParseError("bad LoggedState field: " + std::string(pair));
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    for (const IntegerField& field : kIntegerFields) {
      if (key != field.key) continue;
      const auto v = ParseNumber(value, 10);
      if (!v) {
        return util::ParseError("bad integer in LoggedState: " +
                                std::string(pair));
      }
      field.store(*this, *v);
      return util::Status::Ok();
    }
    if (key == "edm") {
      edm = value == "none" ? std::string_view() : value;
    } else if (key == "outputs") {
      if (value.empty()) return util::Status::Ok();
      return ForEachField(value, ',', [this](std::string_view hex) {
        const auto v = ParseNumber(hex, 16);
        if (!v) return util::ParseError("bad output word: " + std::string(hex));
        outputs.push_back(static_cast<uint32_t>(*v));
        return util::Status::Ok();
      });
    } else if (key.starts_with("scan.")) {
      scan_images.emplace_back(key.substr(5), value);
    } else {
      return util::ParseError("unknown LoggedState key: " + std::string(key));
    }
    return util::Status::Ok();
  };
  GOOFI_RETURN_IF_ERROR(ForEachField(text, ';', parse_pair));
  // Serialize writes the chains sorted and once each; anything else is put
  // in chain order, the last value of a repeated chain winning.
  const auto by_chain = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (std::adjacent_find(scan_images.begin(), scan_images.end(),
                         [](const auto& a, const auto& b) {
                           return a.first >= b.first;
                         }) != scan_images.end()) {
    std::stable_sort(scan_images.begin(), scan_images.end(), by_chain);
    size_t kept = 0;
    for (const auto& image : scan_images) {
      if (kept > 0 && scan_images[kept - 1].first == image.first) {
        scan_images[kept - 1].second = image.second;
      } else {
        scan_images[kept++] = image;
      }
    }
    scan_images.resize(kept);
  }
  return util::Status::Ok();
}

LoggedState LoggedStateView::ToState() const {
  LoggedState state;
  state.halted = halted;
  state.detected = detected;
  state.edm = edm;
  state.edm_code = edm_code;
  state.timed_out = timed_out;
  state.env_failed = env_failed;
  state.cycles = cycles;
  state.instret = instret;
  state.iterations = iterations;
  state.outputs = outputs;
  for (const auto& [chain, bits] : scan_images) {
    state.scan_images.emplace_hint(state.scan_images.end(), chain, bits);
  }
  return state;
}

util::Result<LoggedState> LoggedState::Deserialize(std::string_view text) {
  LoggedStateView view;
  GOOFI_RETURN_IF_ERROR(view.Parse(text));
  return view.ToState();
}

}  // namespace goofi::core
