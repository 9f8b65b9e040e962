#include "env/environment.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace goofi::env {

InvertedPendulum::InvertedPendulum(const Params& params) : params_(params) {
  Reset();
}

void InvertedPendulum::Reset() {
  theta_ = params_.initial_theta;
  omega_ = 0.0;
}

void InvertedPendulum::SenseInto(std::vector<uint32_t>* inputs) const {
  inputs->resize(num_inputs());
  (*inputs)[0] = static_cast<uint32_t>(ToFixed(theta_));
  (*inputs)[1] = static_cast<uint32_t>(ToFixed(omega_));
}

std::vector<uint32_t> InvertedPendulum::Sense() const {
  std::vector<uint32_t> inputs;
  SenseInto(&inputs);
  return inputs;
}

void InvertedPendulum::Exchange(const std::vector<uint32_t>& outputs,
                                std::vector<uint32_t>* inputs) {
  assert(outputs.size() == num_outputs());
  // Saturate the actuator the way a physical torque source would; an
  // injected fault can make the controller emit huge commands, but the plant
  // only sees the achievable range.
  const double u = std::clamp(FromFixed(WordToFixed(outputs[0])), -64.0, 64.0);
  const double accel = params_.instability * theta_ + params_.gain * u;
  omega_ += accel * params_.dt;
  theta_ += omega_ * params_.dt;
  SenseInto(inputs);
}

bool InvertedPendulum::Failed() const {
  return std::fabs(theta_) > params_.fail_theta || !std::isfinite(theta_);
}

CruiseControl::CruiseControl(const Params& params) : params_(params) { Reset(); }

void CruiseControl::Reset() {
  speed_ = 0.0;
  steps_ = 0;
}

void CruiseControl::SenseInto(std::vector<uint32_t>* inputs) const {
  inputs->resize(num_inputs());
  (*inputs)[0] = static_cast<uint32_t>(ToFixed(params_.setpoint - speed_));
}

std::vector<uint32_t> CruiseControl::Sense() const {
  std::vector<uint32_t> inputs;
  SenseInto(&inputs);
  return inputs;
}

void CruiseControl::Exchange(const std::vector<uint32_t>& outputs,
                             std::vector<uint32_t>* inputs) {
  assert(outputs.size() == num_outputs());
  const double u = std::clamp(FromFixed(WordToFixed(outputs[0])), 0.0, 100.0);
  speed_ += (-params_.drag * speed_ + params_.drive * u) * params_.dt;
  ++steps_;
  SenseInto(inputs);
}

bool CruiseControl::Failed() const {
  if (steps_ < params_.settle_steps) return !std::isfinite(speed_);
  return std::fabs(speed_ - params_.setpoint) > params_.fail_band ||
         !std::isfinite(speed_);
}

util::Result<std::unique_ptr<EnvironmentSimulator>> MakeEnvironment(
    const std::string& name) {
  if (name.empty()) return std::unique_ptr<EnvironmentSimulator>();
  if (name == "inverted_pendulum") {
    return std::unique_ptr<EnvironmentSimulator>(
        std::make_unique<InvertedPendulum>());
  }
  if (name == "cruise_control") {
    return std::unique_ptr<EnvironmentSimulator>(
        std::make_unique<CruiseControl>());
  }
  return util::InvalidArgument("unknown environment simulator " + name);
}

}  // namespace goofi::env
