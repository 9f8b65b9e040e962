// Environment simulators: the box labelled "Workload Environment Simulator"
// in the paper's Figure 1.
//
// "During each loop iteration, data may be exchanged with a user provided
// environment simulator emulating the target system environment" (§3.2).
// An EnvironmentSimulator holds plant state on the host; at every workload
// loop-iteration boundary GOOFI reads the workload's actuator words from
// target memory, advances the plant, and writes fresh sensor words back.
//
// Values cross the boundary as Q8.8 signed fixed point (the workload is
// integer-only TRD32 assembly).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace goofi::env {

/// Q8.8 conversion helpers shared by plants and analysis code.
inline int32_t ToFixed(double value) {
  return static_cast<int32_t>(value * 256.0);
}
inline double FromFixed(int32_t fixed) {
  return static_cast<double>(fixed) / 256.0;
}
/// Sign-extends a 32-bit word read from target memory.
inline int32_t WordToFixed(uint32_t word) { return static_cast<int32_t>(word); }

class EnvironmentSimulator {
 public:
  virtual ~EnvironmentSimulator() = default;

  virtual std::string Name() const = 0;

  /// Restores the initial plant state.
  virtual void Reset() = 0;

  /// One exchange at a loop-iteration boundary: consumes the workload's
  /// actuator outputs, advances the plant by one control period and writes
  /// the new sensor inputs into the caller's `inputs`, resized to
  /// num_inputs(). `outputs` must hold num_outputs() words. A caller that
  /// keeps both buffers across iterations exchanges without allocating.
  virtual void Exchange(const std::vector<uint32_t>& outputs,
                        std::vector<uint32_t>* inputs) = 0;

  /// Current sensor words without advancing the plant (the "initial input
  /// data" downloaded before the workload starts).
  virtual std::vector<uint32_t> Sense() const = 0;

  virtual size_t num_inputs() const = 0;   ///< sensor words fed to the target
  virtual size_t num_outputs() const = 0;  ///< actuator words read from it

  /// Whether the plant has left its safe operating envelope (used to detect
  /// escaped errors that manifest as physical failures).
  virtual bool Failed() const = 0;

  /// Full plant state as raw doubles, for checkpointing. RestoreState with a
  /// SaveState vector must reproduce the plant bit-for-bit (doubles are
  /// copied, never recomputed), so a warm-started control loop behaves
  /// identically to the original run.
  virtual std::vector<double> SaveState() const = 0;
  virtual void RestoreState(const std::vector<double>& state) = 0;

  /// Allocation-reusing SaveState variant for the convergence-hash hot path
  /// (called at every checkpoint boundary). Same coverage contract as
  /// SaveState; plants with heavy state can override to append in place.
  virtual void SaveStateInto(std::vector<double>* out) const {
    *out = SaveState();
  }
};

/// Linearized inverted pendulum: unstable second-order plant
///   theta'' = kA * theta + kB * u  (per control period dt)
/// Sensors: [theta, omega] in Q8.8. Actuator: [u] in Q8.8.
/// Fails when |theta| exceeds the fall-over threshold.
class InvertedPendulum final : public EnvironmentSimulator {
 public:
  struct Params {
    double initial_theta = 0.10;  ///< rad
    double dt = 0.01;             ///< control period, seconds
    double instability = 2.0;     ///< kA
    double gain = 1.0;            ///< kB
    double fail_theta = 1.0;      ///< |theta| beyond this = fallen
  };

  InvertedPendulum() : InvertedPendulum(Params{}) {}
  explicit InvertedPendulum(const Params& params);

  std::string Name() const override { return "inverted_pendulum"; }
  void Reset() override;
  void Exchange(const std::vector<uint32_t>& outputs,
                std::vector<uint32_t>* inputs) override;
  std::vector<uint32_t> Sense() const override;
  size_t num_inputs() const override { return 2; }
  size_t num_outputs() const override { return 1; }
  bool Failed() const override;
  std::vector<double> SaveState() const override { return {theta_, omega_}; }
  void RestoreState(const std::vector<double>& state) override {
    theta_ = state.at(0);
    omega_ = state.at(1);
  }

  double theta() const { return theta_; }
  double omega() const { return omega_; }

 private:
  void SenseInto(std::vector<uint32_t>* inputs) const;

  Params params_;
  double theta_ = 0.0;
  double omega_ = 0.0;
};

/// DC-motor cruise control: stable first-order plant tracking a set-point.
///   v' = -kDrag * v + kDrive * u
/// Sensors: [v_error] (set-point minus speed) in Q8.8. Actuator: [u] Q8.8.
/// Fails when |v - setpoint| grows beyond the failure band after the
/// settling time.
class CruiseControl final : public EnvironmentSimulator {
 public:
  struct Params {
    double setpoint = 20.0;   ///< m/s
    double dt = 0.05;
    double drag = 0.2;
    double drive = 1.0;
    double fail_band = 10.0;
    int settle_steps = 100;
  };

  CruiseControl() : CruiseControl(Params{}) {}
  explicit CruiseControl(const Params& params);

  std::string Name() const override { return "cruise_control"; }
  void Reset() override;
  void Exchange(const std::vector<uint32_t>& outputs,
                std::vector<uint32_t>* inputs) override;
  std::vector<uint32_t> Sense() const override;
  size_t num_inputs() const override { return 1; }
  size_t num_outputs() const override { return 1; }
  bool Failed() const override;
  std::vector<double> SaveState() const override {
    return {speed_, static_cast<double>(steps_)};
  }
  void RestoreState(const std::vector<double>& state) override {
    speed_ = state.at(0);
    steps_ = static_cast<int>(state.at(1));
  }

  double speed() const { return speed_; }

 private:
  void SenseInto(std::vector<uint32_t>* inputs) const;

  Params params_;
  double speed_ = 0.0;
  int steps_ = 0;
};

/// A fresh plant for the environment simulator named `name`, or null for an
/// empty name (a control workload without a plant). Every consumer of a
/// workload's `environment` field builds its plant here, so an unknown name
/// fails the same way everywhere.
util::Result<std::unique_ptr<EnvironmentSimulator>> MakeEnvironment(
    const std::string& name);

}  // namespace goofi::env
