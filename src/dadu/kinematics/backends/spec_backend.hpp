// Speculation-backend seam: pluggable kernels for the batched FK walk.
//
// kin::BatchedForward owns the SoA workspace (candidates, position
// lanes, trig scratch, errors) and the *semantics* of a speculative
// sweep; a SpecBackend owns the *arithmetic* — candidate formation,
// the tip-to-base point walk (one DH-structured matrix-vector step per
// joint on three position lanes, the chain base applied last), and the
// per-lane error reduction over a contiguous lane range.  Three implementations ship
// today: the scalar/autovec reference walk, an AVX2 kernel (4 f64
// lanes per vector) and an AVX-512 kernel (8 lanes).  The seam is
// deliberately wide enough for a GPU or IKAcc-model implementation to
// slot in later: a backend advertises its preferred lane multiple and
// BatchedForward pads its workspace to fit.
//
// Parity contract: a backend's results must match the scalar reference
// bit for bit.  The wide kernels replicate the scalar operation order
// exactly — the walk's own mul/add-only sin/cos (specSinCos below;
// libm only for out-of-range lanes, in one shared fix-up pass),
// mul/add without FMA contraction, IEEE vector sqrt — and the parity
// suite compares every tested DOF x K point bit for bit.
//
// Dispatch: dispatchedSpecBackend() picks the widest backend the CPU
// supports (CPUID, checked once), overridable with the
// DADU_SPEC_BACKEND environment variable (scalar|avx2|avx512) or
// programmatically via setSpecBackendOverride() (the CLI's
// --spec-backend flag).  Backends compiled out (non-x86 build, old
// compiler) or unsupported by the running CPU are never selected, so
// one binary runs everywhere.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin {

/// Borrowed view of BatchedForward's f64 workspace for one sweep.
/// All arrays use the same padded lane stride; a kernel may only read
/// or write lanes inside the range it was handed.  Only positions are
/// carried (Quick-IK scores nothing else), not a 3x4 transform per lane.
struct SpecLaneBlock {
  double* pos = nullptr;              ///< x, y, z rows of `stride` lanes
  double* cand = nullptr;             ///< dof x stride candidate matrix
  double* ct = nullptr;               ///< per-lane cos scratch
  double* st = nullptr;               ///< per-lane sin scratch
  const double* trig = nullptr;       ///< Chain::dhTrig(): cos/sin alpha, cos/sin theta0
  double* errors = nullptr;           ///< per-lane error output
  std::size_t stride = 0;             ///< lane stride of cand rows
};

/// One speculation kernel.  Implementations are stateless and
/// thread-safe: concurrent calls over disjoint lane ranges of the same
/// workspace are race-free (that is how the thread-pool solver splits
/// a sweep).
class SpecBackend {
 public:
  virtual ~SpecBackend() = default;

  virtual const char* name() const = 0;
  /// Preferred lane-count multiple (the vector width in f64 lanes).
  /// BatchedForward pads its lane stride to this so every row starts a
  /// whole vector; lane *ranges* need not be multiples — kernels
  /// handle ragged tails internally.
  virtual std::size_t laneMultiple() const = 0;

  /// Candidate formation + batched chain walk over lanes [lo, hi):
  /// cand[i][k] = theta[i] + alpha[k] * dtheta[i] (clamped to joint
  /// limits when asked), then each lane's point moves from the tip to
  /// the base one joint at a time, using the chain's DH trig table and
  /// the walk's sin/cos of each candidate angle; pos holds f(theta_k).
  virtual void walkLanes(const Chain& chain, const SpecLaneBlock& ws,
                         const linalg::VecX& theta,
                         const linalg::VecX& dtheta, const double* alpha,
                         bool clamp_to_limits, std::size_t lo,
                         std::size_t hi) const = 0;

  /// errors[k] = ||target - position(k)|| for lanes [lo, hi),
  /// accumulated x, y, z exactly like the scalar path.
  virtual void reduceErrors(const SpecLaneBlock& ws,
                            const linalg::Vec3& target, std::size_t lo,
                            std::size_t hi) const = 0;
};

/// The scalar/autovec reference backend (always available).
const SpecBackend& scalarSpecBackend();

/// The speculation walk's sin/cos, as the scalar reference evaluates it:
/// s[i] = sin(x[i]), c[i] = cos(x[i]).  Built from IEEE mul/add/sub
/// only (within 2 ULP of libm) for |x| < 1e5; larger and non-finite x
/// return std::sin/std::cos exactly.  Every backend's walk reproduces
/// these values bit for bit.  The scalar FK (dh.hpp) keeps libm.
void specSinCos(const double* x, double* s, double* c, std::size_t n);

/// Internal: per-ISA factories.  Return nullptr when the backend was
/// compiled out (non-x86 target or compiler without the ISA flags).
const SpecBackend* avx2SpecBackend();
const SpecBackend* avx512SpecBackend();

/// Every backend compiled into this binary, widest first.  Inclusion
/// does not imply the running CPU can execute it — check
/// specBackendSupported() before selecting one by hand.
std::vector<const SpecBackend*> allSpecBackends();

/// Backend by registry name ("scalar", "avx2", "avx512"); nullptr if
/// unknown or compiled out.
const SpecBackend* specBackendByName(std::string_view name);

/// True when the running CPU can execute `backend` (CPUID check).
bool specBackendSupported(const SpecBackend& backend);

/// The process-wide dispatched backend: chosen once — DADU_SPEC_BACKEND
/// override if set and runnable (else a one-time warning and CPU
/// dispatch), otherwise the widest CPU-supported backend.  New
/// BatchedForward instances bind to this at construction.
const SpecBackend& dispatchedSpecBackend();

/// Force the dispatched backend by name (CLI --spec-backend).  Returns
/// false (and changes nothing) when the name is unknown, compiled out,
/// or unsupported by this CPU.  Affects BatchedForward instances
/// constructed afterwards.
bool setSpecBackendOverride(std::string_view name);

/// Name of the backend dispatchedSpecBackend() currently returns.
std::string activeSpecBackendName();

}  // namespace dadu::kin
