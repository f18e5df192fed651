// Pre-sized append buffer for policy events.
//
// The recorder is wired into the controller/chip as a nullable pointer
// (Observer::event_sink()): a null pointer makes every emission site a
// single predictable branch, so the instrumentation can stay compiled in.  On
// overflow the newest events are dropped (the head of a run is the
// interesting part — that is where partitions form) and the drop count is
// reported by the exporters so truncation is never silent.
//
// Concurrency: record() and every reader take the annotated recorder mutex
// (common/sync.hpp), so one recorder can be shared by concurrent emitters.
// events() returns a snapshot by value — safe to iterate while emitters are
// still running.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sync.hpp"
#include "obs/event.hpp"

namespace delta::obs {

class EventRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;  // ~10 MB.

  explicit EventRecorder(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
    events_.reserve(capacity_);
  }

  /// Run index stamped onto subsequent events (one run per scheme).
  void set_run(std::uint8_t run) EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    run_ = run;
  }
  std::uint8_t run() const EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    return run_;
  }

  void record(EventKind kind, std::uint64_t epoch, int core, int bank = -1,
              int other = -1, std::uint64_t count = 0, double a = 0.0,
              double b = 0.0) EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    Event e;
    e.epoch = epoch;
    e.kind = kind;
    e.run = run_;
    e.core = static_cast<std::int16_t>(core);
    e.bank = static_cast<std::int16_t>(bank);
    e.other = static_cast<std::int16_t>(other);
    e.count = static_cast<std::uint32_t>(count);
    e.a = a;
    e.b = b;
    events_.push_back(e);
  }

  /// Snapshot of the buffered events (copy; see the concurrency note above).
  std::vector<Event> events() const EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    return events_;
  }
  std::size_t size() const EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    return events_.size();
  }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    return dropped_;
  }

  std::uint64_t count_of(EventKind k) const EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    std::uint64_t n = 0;
    for (const Event& e : events_) n += e.kind == k ? 1 : 0;
    return n;
  }

  /// Appends a snapshot of `other`'s events with run indices shifted by
  /// `run_offset` (merging per-job recorders back into one trace in job
  /// order).  Capacity overflow drops the newest events exactly like
  /// record(), and `other`'s own drop count carries over, so truncation
  /// stays visible in the merged exporters.
  void append_from(const EventRecorder& other, std::uint8_t run_offset)
      EXCLUDES(mu_) {
    const std::vector<Event> src = other.events();
    const std::uint64_t src_dropped = other.dropped();
    const common::LockGuard lock(mu_);
    for (Event e : src) {
      if (events_.size() >= capacity_) {
        ++dropped_;
        continue;
      }
      e.run = static_cast<std::uint8_t>(e.run + run_offset);
      events_.push_back(e);
    }
    dropped_ += src_dropped;
  }

  void clear() EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    events_.clear();
    dropped_ = 0;
  }

 private:
  mutable common::Mutex mu_;
  std::vector<Event> events_ GUARDED_BY(mu_);
  std::size_t capacity_;
  std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
  std::uint8_t run_ GUARDED_BY(mu_) = 0;
};

}  // namespace delta::obs
