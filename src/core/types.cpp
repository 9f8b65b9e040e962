#include "core/types.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace goofi::core {

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

util::Result<FaultModelKind> FaultModelFromName(const std::string& name) {
  for (FaultModelKind k :
       {FaultModelKind::kTransientBitFlip, FaultModelKind::kIntermittentBitFlip,
        FaultModelKind::kPermanentStuckAt}) {
    if (name == FaultModelName(k)) return k;
  }
  return util::ParseError("unknown fault model: " + name);
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

util::Result<FaultInstance> FaultInstance::Parse(const std::string& text) {
  const std::vector<std::string> fields = util::Split(text, ',');
  if (fields.size() != 8) {
    return util::ParseError("bad FaultInstance encoding: " + text);
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
    return util::ParseError("bad FaultInstance numbers: " + text);
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
  void (*store)(LoggedState& state, int64_t value);
};

constexpr IntegerField kIntegerFields[] = {
    {"halted", [](LoggedState& s, int64_t v) { s.halted = v != 0; }},
    {"detected", [](LoggedState& s, int64_t v) { s.detected = v != 0; }},
    {"timeout", [](LoggedState& s, int64_t v) { s.timed_out = v != 0; }},
    {"envfail", [](LoggedState& s, int64_t v) { s.env_failed = v != 0; }},
    {"code",
     [](LoggedState& s, int64_t v) { s.edm_code = static_cast<int32_t>(v); }},
    {"cycles",
     [](LoggedState& s, int64_t v) { s.cycles = static_cast<uint64_t>(v); }},
    {"instret",
     [](LoggedState& s, int64_t v) { s.instret = static_cast<uint64_t>(v); }},
    {"iters",
     [](LoggedState& s, int64_t v) { s.iterations = static_cast<int>(v); }},
};

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

// One pass over the text: fields are string_views into it, and only scan
// images and the EDM name are copied out.
util::Result<LoggedState> LoggedState::Deserialize(std::string_view text) {
  LoggedState state;
  const auto parse_pair = [&state](std::string_view pair) {
    if (pair.empty()) return util::Status::Ok();
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return util::ParseError("bad LoggedState field: " + std::string(pair));
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    for (const IntegerField& field : kIntegerFields) {
      if (key != field.key) continue;
      const auto v = util::ParseInt(value);
      if (!v) {
        return util::ParseError("bad integer in LoggedState: " +
                                std::string(pair));
      }
      field.store(state, *v);
      return util::Status::Ok();
    }
    if (key == "edm") {
      state.edm = value == "none" ? std::string_view() : value;
    } else if (key == "outputs") {
      if (value.empty()) return util::Status::Ok();
      return ForEachField(value, ',', [&state](std::string_view hex) {
        const auto v = util::ParseInt("0x" + std::string(hex));
        if (!v) return util::ParseError("bad output word: " + std::string(hex));
        state.outputs.push_back(static_cast<uint32_t>(*v));
        return util::Status::Ok();
      });
    } else if (key.starts_with("scan.")) {
      state.scan_images[std::string(key.substr(5))] = value;
    } else {
      return util::ParseError("unknown LoggedState key: " + std::string(key));
    }
    return util::Status::Ok();
  };
  GOOFI_RETURN_IF_ERROR(ForEachField(text, ';', parse_pair));
  return state;
}

}  // namespace goofi::core
