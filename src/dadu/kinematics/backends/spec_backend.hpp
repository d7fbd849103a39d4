// Speculation-backend seam: pluggable kernels for the batched FK walk.
//
// kin::BatchedForward owns the workspace (factor tables, position
// rows, errors) and the *semantics* of a speculative sweep; a
// SpecBackend owns the *arithmetic*, in two phases over a contiguous
// lane range:
//
//   1. prepass: the trig that does not depend on the walk's state.  For
//      Eq. 9's ladder, each revolute joint's kLadderBlock base factors
//      and its block factors go into small per-joint tables, and the
//      prepass picks each joint's trig form (JointTrig below).
//   2. walk: each group of a few lane vectors carries its x, y, z from
//      the tip to the base in registers — per joint a (cos, sin) from
//      the tables or per lane, one DH-structured point step — then
//      applies the chain base, reduces the error, and stores the
//      position and error once.
//
// A backend also runs the serial head's trig (sinCos): the N joint
// angles of positionJacobian, a vector at a time, with the walk's own
// sin/cos.
//
// Three implementations ship today: the scalar reference walk (one
// lane per "vector"), an AVX2 kernel (4 f64 lanes per vector) and an
// AVX-512 kernel (8 lanes).  The seam is deliberately wide enough for a
// GPU or IKAcc-model implementation to slot in later: a backend
// advertises its preferred lane multiple and BatchedForward pads its
// workspace to fit.
//
// Parity contract: a backend's results must match the scalar reference
// bit for bit.  The wide kernels replicate the scalar operation order
// exactly — the walk's own sin/cos (specSinCos below; libm only for
// out-of-range lanes), the ladder's fixed block width kLadderBlock,
// fused multiply-adds exactly where the walk writes V::fma / V::fnma
// (one rounding each: FMA3 / AVX-512 instructions, std::fma in the
// scalar reference) and separate multiplies and adds everywhere else,
// IEEE vector sqrt — and the parity suite compares every tested DOF x K
// point bit for bit.  The AVX2 backend therefore needs FMA3 too:
// dispatch checks both CPUID bits.
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

/// Block width of Eq. 9's ladder in the f64 walk (evaluateLadder):
/// lane k = j * kLadderBlock + m takes its (cos, sin) as base factor m
/// rotated by block factor j.  The same in every backend, so backends
/// stay bit-identical.
inline constexpr std::size_t kLadderBlock = 8;

/// How the walk forms one joint's (cos, sin), chosen per joint by the
/// prepass.
enum class JointTrig : unsigned char {
  kLadder,       ///< Eq. 9's rotation of table factors, every lane
  kLadderFixup,  ///< the rotation, with per-lane trig for fix-up lanes
  kLanes,        ///< per-lane trig of every candidate angle
  kPrismatic,    ///< fixed rotation; the candidate moves d
};

/// Borrowed view of BatchedForward's f64 workspace for one sweep.
/// Lane arrays use the padded lane stride; a kernel may only read or
/// write lanes inside the range it was handed.  Only positions are
/// carried (Quick-IK scores nothing else).  The joint-major walk's
/// fields are gone: the dof x K candidate matrix `cand` (the walk forms
/// a lane's candidate in registers where it needs one) and the per-lane
/// cos/sin scratch rows `ct`, `st`; `fc`, `fs` now hold every joint's
/// factors, not one joint's.
struct SpecLaneBlock {
  const double* trig = nullptr;   ///< Chain::dhTrig(): cos/sin alpha, cos/sin theta0
  /// Lane k's alpha_k: the caller's array (evaluateLanes) or Eq. 9's
  /// ladder, lanes [0, kLadderBlock) always included (evaluateLadder).
  const double* alpha = nullptr;
  /// Eq. 9's ladder, or nullptr for per-lane trig:
  /// ladder_step[j] = (j * kLadderBlock / K) * alpha_base, the step
  /// from lane m to lane j * kLadderBlock + m per unit dtheta.
  const double* ladder_step = nullptr;
  /// Per-joint factor tables (cos, sin), `factor_stride` entries per
  /// joint: kLadderBlock base factors, then block factor j at
  /// kLadderBlock + j.  Written by the prepass.
  double* fc = nullptr;
  double* fs = nullptr;
  std::size_t factor_stride = 0;
  JointTrig* joint_trig = nullptr;  ///< per-joint form, written by the prepass
  double* pos = nullptr;            ///< x, y, z rows of `stride` lanes
  double* errors = nullptr;         ///< per-lane error output
  std::size_t stride = 0;           ///< lane stride of the pos rows
};

/// One speculation kernel.  Implementations are stateless and
/// thread-safe: concurrent calls over disjoint lane ranges of the same
/// workspace are race-free.
class SpecBackend {
 public:
  virtual ~SpecBackend() = default;

  virtual const char* name() const = 0;
  /// Preferred lane-count multiple (the vector width in f64 lanes).
  /// BatchedForward pads its lane stride to this so every row starts a
  /// whole vector; lane *ranges* need not be multiples — kernels
  /// handle ragged tails internally.
  virtual std::size_t laneMultiple() const = 0;

  /// Phase 1 over lanes [lo, hi): pick every joint's JointTrig and,
  /// for Eq. 9's ladder (ws.ladder_step set), fill the revolute
  /// joints' factor tables.
  virtual void prepass(const Chain& chain, const SpecLaneBlock& ws,
                       const linalg::VecX& theta, const linalg::VecX& dtheta,
                       bool clamp_to_limits, std::size_t lo,
                       std::size_t hi) const = 0;

  /// Phase 2 over lanes [lo, hi), after prepass() over the same range:
  /// candidate k is theta + alpha[k] * dtheta (clamped to the joint
  /// limits when asked); its point moves from the tip to the base and
  /// through the chain base, pos holds f(theta_k) and errors[k] =
  /// ||target - f(theta_k)||, accumulated x, y, z like the scalar path.
  virtual void walk(const Chain& chain, const SpecLaneBlock& ws,
                    const linalg::VecX& theta, const linalg::VecX& dtheta,
                    const linalg::Vec3& target, bool clamp_to_limits,
                    std::size_t lo, std::size_t hi) const = 0;

  /// s[i] = sin(x[i]), c[i] = cos(x[i]) for i < n, a whole vector at a
  /// time: the serial head's trig prepass (positionJacobian).  Equal to
  /// specSinCos bit for bit.  s and c must not overlap x.
  virtual void sinCos(const double* x, double* s, double* c,
                      std::size_t n) const = 0;
};

/// The scalar reference backend (always available).
const SpecBackend& scalarSpecBackend();

/// The speculation walk's sin/cos, as the scalar reference evaluates it:
/// s[i] = sin(x[i]), c[i] = cos(x[i]).  Built from IEEE mul/add/sub
/// and fused multiply-adds (within 2 ULP of libm) for |x| < 1e5; larger
/// and non-finite x return std::sin/std::cos exactly.  Every backend's
/// walk and its SpecBackend::sinCos reproduce these values bit for bit;
/// this is the scalar backend's sinCos.  The scalar FK (forward.hpp,
/// dh.hpp) keeps libm.
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
/// BatchedForward instances bind to this at construction;
/// positionJacobian looks it up on every call.
const SpecBackend& dispatchedSpecBackend();

/// Force the dispatched backend by name (CLI --spec-backend).  Returns
/// false (and changes nothing) when the name is unknown, compiled out,
/// or unsupported by this CPU.  Affects BatchedForward instances
/// constructed afterwards and every later positionJacobian call.
bool setSpecBackendOverride(std::string_view name);

/// Name of the backend dispatchedSpecBackend() currently returns.
std::string activeSpecBackendName();

}  // namespace dadu::kin
