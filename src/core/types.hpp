// Core data model of GOOFI: campaign configuration, fault descriptions and
// logged experiment state.
//
// These types are what the paper's GUI screens (Fig. 5/6) edit and what the
// database tables (Fig. 4) persist. CampaignStore converts between these
// structs and database rows.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bitvec.hpp"
#include "util/status.hpp"

namespace goofi::core {

/// Fault-injection techniques supported by the tool. SCIFI and pre-runtime
/// SWIFI are the paper's two implemented techniques; runtime SWIFI is the
/// first listed future extension (§4).
enum class Technique {
  kScifi = 0,
  kSwifiPreRuntime,
  kSwifiRuntime,
};
const char* TechniqueName(Technique technique);
util::Result<Technique> TechniqueFromName(const std::string& name);

/// Fault models. The paper's current version supports transient bit flips;
/// intermittent and permanent faults are listed extensions (§4).
enum class FaultModelKind {
  kTransientBitFlip = 0,
  kIntermittentBitFlip,
  kPermanentStuckAt,
};
const char* FaultModelName(FaultModelKind kind);
util::Result<FaultModelKind> FaultModelFromName(std::string_view name);

/// Normal vs detail logging mode (§3.3): normal logs only at termination;
/// detail logs after every machine instruction to produce an execution
/// trace for error-propagation analysis.
enum class LogMode { kNormal = 0, kDetail };
const char* LogModeName(LogMode mode);

/// A user-selected set of candidate fault locations (the hierarchical list
/// of Fig. 6). `chain` names a scan chain for SCIFI ("internal_regfile",
/// "internal_core", ...) or one of the pseudo-spaces "memory.text" /
/// "memory.data" for SWIFI. `cell_prefix` narrows a chain to cells whose
/// name starts with the prefix (e.g. "regfile.r" or "core.pc").
struct FaultLocationSelector {
  std::string chain;
  std::string cell_prefix;

  std::string ToString() const;
  static util::Result<FaultLocationSelector> Parse(const std::string& text);
};

/// Everything the set-up phase (Fig. 6) stores into the CampaignData table.
struct CampaignData {
  std::string name;
  std::string target_name;  ///< FK into TargetSystemData
  Technique technique = Technique::kScifi;
  FaultModelKind fault_model = FaultModelKind::kTransientBitFlip;

  /// Number of simultaneous bit faults per experiment ("single or multiple
  /// transient bit-flip faults", §1).
  int faults_per_experiment = 1;
  int num_experiments = 100;

  /// Injection-time window, in retired instructions: each experiment picks a
  /// uniform random time in [inject_min_instr, inject_max_instr].
  uint64_t inject_min_instr = 1;
  uint64_t inject_max_instr = 1000;

  std::vector<FaultLocationSelector> locations;

  std::string workload;  ///< built-in workload name (src/env/workloads)

  /// Termination conditions (§3.2): timeout, detection, or workload end —
  /// whichever comes first. For infinite-loop workloads, the maximum number
  /// of loop iterations to execute.
  uint64_t timeout_cycles = 2'000'000;
  int max_iterations = 200;

  uint64_t seed = 0x600F1;
  LogMode log_mode = LogMode::kNormal;

  /// Scan chains observed and logged at experiment termination ("the
  /// locations to observe can be selected by the user", §3.3).
  std::vector<std::string> observe_chains = {"internal_core", "internal_regfile"};

  /// Intermittent-fault shape: the fault re-flips `burst_length` times with
  /// `burst_spacing` retired instructions between activations.
  uint32_t burst_length = 3;
  uint64_t burst_spacing = 50;
};

/// One concrete fault resolved for one experiment.
struct FaultInstance {
  FaultModelKind kind = FaultModelKind::kTransientBitFlip;

  // Scan-space location (SCIFI): chain + absolute bit within the chain.
  std::string chain;
  uint32_t chain_bit = 0;
  std::string cell_name;  ///< backing state element, for reports

  // Memory-space location (SWIFI): byte address + bit index.
  uint32_t address = 0;
  uint32_t bit = 0;

  /// Injection time in retired instructions (ignored by pre-runtime SWIFI).
  uint64_t inject_instr = 0;

  /// Permanent faults: the stuck value.
  bool stuck_value = false;

  bool IsScanFault() const { return !chain.empty(); }
  std::string Describe() const;

  /// Machine-readable round-trip form, stored in the experimentData column
  /// so an experiment can be re-run exactly (parentExperiment re-runs, §2.3).
  std::string Serialize() const;
  static util::Result<FaultInstance> Parse(std::string_view text);
};

/// The observed system state logged for one experiment (the stateVector
/// column of LoggedSystemState).
struct LoggedState {
  bool halted = false;        ///< workload ran to completion (HALT)
  bool detected = false;      ///< an EDM fired
  std::string edm;            ///< EdmTypeName of the detection
  int32_t edm_code = 0;       ///< TRAP code for software assertions
  bool timed_out = false;     ///< timeout_cycles elapsed
  bool env_failed = false;    ///< environment left its safe envelope
  uint64_t cycles = 0;
  uint64_t instret = 0;
  int iterations = 0;         ///< completed loop iterations (control workloads)
  std::vector<uint32_t> outputs;  ///< result words / actuator-trace checksum
  std::map<std::string, std::string> scan_images;  ///< chain -> bit string

  /// Compact key=value serialization for the database TEXT column.
  std::string Serialize() const;
  /// LoggedStateView::Parse plus ToState: the one stateVector grammar.
  static util::Result<LoggedState> Deserialize(std::string_view text);
};

/// A stateVector parsed in place: the scalars and output words as values,
/// the EDM name and the scan images as views of the parsed text, valid
/// while it is. This is the grammar of the stateVector column; the analysis
/// classifies stored rows through it without copying them.
struct LoggedStateView {
  bool halted = false;
  bool detected = false;
  std::string_view edm;  ///< empty for "edm=none"
  int32_t edm_code = 0;
  bool timed_out = false;
  bool env_failed = false;
  uint64_t cycles = 0;
  uint64_t instret = 0;
  int iterations = 0;
  std::vector<uint32_t> outputs;
  /// chain -> bit string, sorted by chain; a repeated chain keeps its last
  /// value, as LoggedState's map does.
  std::vector<std::pair<std::string_view, std::string_view>> scan_images;

  /// Parses `text` into this view, replacing what it held. The vectors keep
  /// their storage, so one view parses many rows without allocating. On
  /// error the view holds an unspecified partial parse.
  util::Status Parse(std::string_view text);

  /// The parsed state as an owning LoggedState.
  LoggedState ToState() const;
};

/// §3.4 classification of an experiment outcome.
enum class Outcome {
  kDetected = 0,   ///< effective, caught by an EDM
  kEscaped,        ///< effective, caused a failure (wrong value / late)
  kLatent,         ///< non-effective but state still differs from reference
  kOverwritten,    ///< non-effective, state identical to reference
};
const char* OutcomeName(Outcome outcome);

}  // namespace goofi::core
