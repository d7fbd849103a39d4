#include "dadu/kinematics/forward.hpp"

namespace dadu::kin {

linalg::Mat4 forwardKinematics(const Chain& chain, const linalg::VecX& q) {
  chain.requireSize(q);
  linalg::Mat4 t = chain.base();
  for (std::size_t i = 0; i < chain.dof(); ++i)
    t = t * chain.jointTransform(i, q[i]);
  return t;
}

linalg::Vec3 endEffectorPosition(const Chain& chain, const linalg::VecX& q) {
  return forwardKinematics(chain, q).position();
}

void linkFrames(const Chain& chain, const linalg::VecX& q,
                std::vector<linalg::Mat4>& frames) {
  chain.requireSize(q);
  frames.resize(chain.dof());
  linalg::Mat4 t = chain.base();
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    t = t * chain.jointTransform(i, q[i]);
    frames[i] = t;
  }
}

std::vector<linalg::Mat4> linkFrames(const Chain& chain,
                                     const linalg::VecX& q) {
  std::vector<linalg::Mat4> frames;
  linkFrames(chain, q, frames);
  return frames;
}

long long fkFlops(std::size_t dof) {
  // Per joint: one DH transform build (~2 trig approx 2*10 flops
  // equivalent + 6 mul) and one 4x4 multiply (64 mul + 48 add).
  constexpr long long kPerJoint = 20 + 6 + 64 + 48;
  return static_cast<long long>(dof) * kPerJoint;
}

}  // namespace dadu::kin
