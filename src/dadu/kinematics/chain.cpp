#include "dadu/kinematics/chain.hpp"

#include <cmath>
#include <stdexcept>

namespace dadu::kin {

Chain::Chain(std::vector<Joint> joints, std::string name, linalg::Mat4 base)
    : joints_(std::move(joints)), name_(std::move(name)), base_(base) {
  if (joints_.empty())
    throw std::invalid_argument("Chain '" + name_ + "': no joints");
  for (std::size_t i = 0; i < joints_.size(); ++i) {
    const DhParam& p = joints_[i].dh;
    if (!std::isfinite(p.a) || !std::isfinite(p.alpha) ||
        !std::isfinite(p.d) || !std::isfinite(p.theta))
      throw std::invalid_argument("Chain '" + name_ + "': non-finite DH row " +
                                  std::to_string(i));
    if (joints_[i].min > joints_[i].max)
      throw std::invalid_argument("Chain '" + name_ +
                                  "': inverted limits at joint " +
                                  std::to_string(i));
  }
  dh_trig_.reserve(4 * joints_.size());
  for (const Joint& j : joints_) {
    dh_trig_.push_back(std::cos(j.dh.alpha));
    dh_trig_.push_back(std::sin(j.dh.alpha));
    dh_trig_.push_back(std::cos(j.dh.theta));
    dh_trig_.push_back(std::sin(j.dh.theta));
  }
}

double Chain::maxReach() const {
  double reach = 0.0;
  for (const Joint& j : joints_) {
    reach += std::abs(j.dh.a) + std::abs(j.dh.d);
    if (j.type == JointType::kPrismatic)
      reach += std::max(std::abs(j.min), std::abs(j.max));
  }
  return reach;
}

bool Chain::withinLimits(const linalg::VecX& q) const {
  requireSize(q);
  for (std::size_t i = 0; i < joints_.size(); ++i)
    if (q[i] < joints_[i].min || q[i] > joints_[i].max) return false;
  return true;
}

linalg::VecX Chain::clampToLimits(const linalg::VecX& q) const {
  requireSize(q);
  linalg::VecX out = q;
  for (std::size_t i = 0; i < joints_.size(); ++i)
    out[i] = joints_[i].clamp(out[i]);
  return out;
}

void Chain::requireSize(const linalg::VecX& q) const {
  if (q.size() != dof())
    throw std::invalid_argument("Chain '" + name_ + "': joint vector size " +
                                std::to_string(q.size()) + " != dof " +
                                std::to_string(dof()));
}

}  // namespace dadu::kin
