// Virtual time source for the deterministic simulation harness.
//
// A SimClock is a number, not a thread of execution: now() returns the
// current virtual instant and nothing moves it except an explicit
// advance — by the SimExecutor stepping to the next due task, or by a
// component "sleeping".  sleepFor() *is* the advance: under the
// cooperative single-threaded sim there is exactly one runnable task,
// so a task that sleeps simply moves the universe forward — a modeled
// 0.4 ms solve or an injected 50 ms chaos delay costs nothing in wall
// time.  That is the trick that lets a million simulated requests run
// in seconds.
//
// Single-threaded by design (like everything in dadu::sim): no atomics,
// no locks, and time never goes backwards.
#pragma once

#include <chrono>
#include <cstdint>

#include "dadu/platform/clock.hpp"

namespace dadu::sim {

class SimClock final : public platform::Clock {
 public:
  /// Virtual time starts one hour past the epoch, not *at* it: the
  /// solver layer treats the epoch time_point as the "no deadline"
  /// sentinel, and starting elsewhere keeps any real instant the sim
  /// ever computes unambiguous.
  static constexpr duration kStart = std::chrono::hours(1);

  time_point now() const override { return now_; }

  /// Advance virtual time by `d` (negative or zero: no-op — time never
  /// rewinds).  Const because Clock::sleepFor is const for the real
  /// clock's sake; the mutation is the whole point here.
  void sleepFor(duration d) const override {
    if (d.count() > 0) now_ += d;
  }

  void advance(duration d) { sleepFor(d); }

  /// Advance to an absolute instant; a `t` in the past is a no-op.
  void advanceTo(time_point t) {
    if (t > now_) now_ = t;
  }

  /// Virtual time elapsed since construction.
  duration elapsed() const { return now_ - (time_point{} + kStart); }
  /// elapsed() in whole microseconds (trace timestamps).
  std::uint64_t elapsedUs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed())
            .count());
  }

 private:
  mutable time_point now_ = time_point{} + kStart;
};

}  // namespace dadu::sim
