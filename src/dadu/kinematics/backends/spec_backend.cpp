// Speculation-backend registry and runtime CPU dispatch.
//
// Selection order: DADU_SPEC_BACKEND environment override (if it names
// a backend this binary carries AND this CPU can run — otherwise a
// one-time stderr warning and normal dispatch), else the widest
// CPUID-supported backend.  The choice is made once and cached;
// setSpecBackendOverride() (the CLI --spec-backend flag) replaces it
// for BatchedForward instances constructed afterwards.
#include "dadu/kinematics/backends/spec_backend.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dadu::kin {
namespace {

bool cpuSupports(const char* backend_name) {
#if defined(__x86_64__) || defined(__i386__)
  // The AVX2 backend's fused ops are FMA3 instructions, a separate
  // CPUID bit; AVX-512F includes them.
  if (std::strcmp(backend_name, "avx2") == 0)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (std::strcmp(backend_name, "avx512") == 0)
    return __builtin_cpu_supports("avx512f");
#else
  if (std::strcmp(backend_name, "avx2") == 0 ||
      std::strcmp(backend_name, "avx512") == 0)
    return false;
#endif
  return std::strcmp(backend_name, "scalar") == 0;
}

const SpecBackend* pickDispatched() {
  if (const char* env = std::getenv("DADU_SPEC_BACKEND")) {
    if (const SpecBackend* forced = specBackendByName(env);
        forced != nullptr && specBackendSupported(*forced))
      return forced;
    std::fprintf(stderr,
                 "dadu: DADU_SPEC_BACKEND='%s' unknown, compiled out, or "
                 "unsupported by this CPU; falling back to dispatch\n",
                 env);
  }
  for (const SpecBackend* backend : allSpecBackends())
    if (specBackendSupported(*backend)) return backend;
  return &scalarSpecBackend();
}

/// Cached dispatch choice.  Initialised lazily; the benign first-call
/// race resolves to the same pointer on every thread.
std::atomic<const SpecBackend*>& activeSlot() {
  static std::atomic<const SpecBackend*> slot{nullptr};
  return slot;
}

}  // namespace

std::vector<const SpecBackend*> allSpecBackends() {
  std::vector<const SpecBackend*> backends;
  if (const SpecBackend* b = avx512SpecBackend()) backends.push_back(b);
  if (const SpecBackend* b = avx2SpecBackend()) backends.push_back(b);
  backends.push_back(&scalarSpecBackend());
  return backends;
}

const SpecBackend* specBackendByName(std::string_view name) {
  for (const SpecBackend* backend : allSpecBackends())
    if (name == backend->name()) return backend;
  return nullptr;
}

bool specBackendSupported(const SpecBackend& backend) {
  return cpuSupports(backend.name());
}

const SpecBackend& dispatchedSpecBackend() {
  const SpecBackend* backend = activeSlot().load(std::memory_order_acquire);
  if (backend == nullptr) {
    backend = pickDispatched();
    activeSlot().store(backend, std::memory_order_release);
  }
  return *backend;
}

bool setSpecBackendOverride(std::string_view name) {
  const SpecBackend* backend = specBackendByName(name);
  if (backend == nullptr || !specBackendSupported(*backend)) return false;
  activeSlot().store(backend, std::memory_order_release);
  return true;
}

std::string activeSpecBackendName() {
  return dispatchedSpecBackend().name();
}

}  // namespace dadu::kin
