#include "dadu/solvers/factory.hpp"

#include <stdexcept>

#include "dadu/solvers/ccd.hpp"
#include "dadu/solvers/dls.hpp"
#include "dadu/solvers/jt_eq8.hpp"
#include "dadu/solvers/jt_fixed_alpha.hpp"
#include "dadu/solvers/jt_momentum.hpp"
#include "dadu/solvers/jt_serial.hpp"
#include "dadu/solvers/pinv_svd.hpp"
#include "dadu/solvers/quick_ik.hpp"
#include "dadu/solvers/quick_ik_adaptive.hpp"
#include "dadu/solvers/quick_ik_f32.hpp"
#include "dadu/solvers/sdls.hpp"

namespace dadu::ik {

std::vector<std::string> solverNames() {
  return {"jt-serial", "jt-eq8",       "jt-fixed-alpha",    "jt-momentum",
          "quick-ik",  "quick-ik-f32", "quick-ik-adaptive", "pinv-svd",
          "dls",       "sdls",         "ccd"};
}

std::unique_ptr<IkSolver> makeSolver(const std::string& name,
                                     const kin::Chain& chain,
                                     const SolveOptions& options) {
  if (name == "jt-serial")
    return std::make_unique<JtSerialSolver>(chain, options);
  if (name == "jt-eq8") return std::make_unique<JtEq8Solver>(chain, options);
  if (name == "jt-momentum")
    return std::make_unique<JtMomentumSolver>(chain, options);
  if (name == "jt-fixed-alpha")
    return std::make_unique<JtFixedAlphaSolver>(chain, options, 0.05);
  if (name == "quick-ik") return std::make_unique<QuickIkSolver>(chain, options);
  if (name == "quick-ik-adaptive")
    return std::make_unique<QuickIkAdaptiveSolver>(chain, options);
  if (name == "quick-ik-f32")
    return std::make_unique<QuickIkF32Solver>(chain, options);
  if (name == "pinv-svd") return std::make_unique<PinvSvdSolver>(chain, options);
  if (name == "dls") return std::make_unique<DlsSolver>(chain, options);
  if (name == "sdls") return std::make_unique<SdlsSolver>(chain, options);
  if (name == "ccd") return std::make_unique<CcdSolver>(chain, options);
  throw std::invalid_argument("unknown IK solver: " + name);
}

}  // namespace dadu::ik
