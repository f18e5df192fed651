#include "workload/shared_stream.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/rng.hpp"
#include "workload/spec.hpp"

namespace delta::workload {
namespace {

std::atomic<std::size_t> g_live_chunks{0};
std::atomic<std::size_t> g_live_streams{0};

constexpr std::uint64_t kFinished = UINT64_MAX;

}  // namespace

std::uint64_t core_seed(std::uint64_t seed, int core) {
  std::uint64_t state = seed;
  std::uint64_t s = 0;
  for (int c = 0; c <= core; ++c) s = splitmix64(state);
  return s;
}

SharedStream::SharedStream(const AppProfile& profile, Addr base, std::uint64_t seed,
                           unsigned sharers)
    : base_block_(block_of(base)),
      sharers_(sharers),
      places_(std::make_unique<std::atomic<std::uint64_t>[]>(sharers)),
      source_(profile, base, seed),
      scratch_(StreamChunk::kBlocks) {
  assert(epoch_invariant(profile));
  for (unsigned i = 0; i < sharers_; ++i) places_[i].store(0, std::memory_order_relaxed);
  g_live_streams.fetch_add(1, std::memory_order_relaxed);
}

SharedStream::~SharedStream() {
  const common::LockGuard lock(mu_);
  g_live_chunks.fetch_sub(live_.size(), std::memory_order_relaxed);
  g_live_streams.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t SharedStream::live_chunks() {
  return g_live_chunks.load(std::memory_order_relaxed);
}

std::size_t SharedStream::live_streams() {
  return g_live_streams.load(std::memory_order_relaxed);
}

unsigned SharedStream::attach() {
  const common::LockGuard lock(mu_);
  if (attached_ == sharers_)
    throw std::logic_error("SharedStream: more sharers than were counted");
  return attached_++;
}

void SharedStream::read(StreamCursor& cur, BlockAddr* out, std::size_t n) {
  const BlockAddr base = base_block_;
  while (n > 0) {
    if (cur.chunk == nullptr || cur.next == StreamChunk::kBlocks) {
      cur.chunk = advance(cur);
      cur.next = 0;
    }
    const std::size_t m = std::min(n, StreamChunk::kBlocks - cur.next);
    const std::uint32_t* const src = cur.chunk->offsets.data() + cur.next;
    for (std::size_t i = 0; i < m; ++i) out[i] = base + src[i];
    out += m;
    n -= m;
    cur.next += m;
  }
}

StreamChunk* SharedStream::advance(StreamCursor& cur) {
  // Acquire pairs with the release that published the chunk, so its
  // offsets are visible without the lock.
  const std::atomic<StreamChunk*>& link = cur.chunk == nullptr ? head_ : cur.chunk->next;
  StreamChunk* next = link.load(std::memory_order_acquire);
  if (next == nullptr) next = draw_after(cur.chunk);
  // The sharer is done with every chunk before `next`.  Release orders its
  // reads of them before any free that sees this place.
  places_[cur.sharer].store(next->index, std::memory_order_release);
  if (oldest_.load(std::memory_order_relaxed) < min_place()) free_passed();
  return next;
}

StreamChunk* SharedStream::draw_after(StreamChunk* prev) {
  const common::LockGuard lock(mu_);
  std::atomic<StreamChunk*>& link = prev == nullptr ? head_ : prev->next;
  // Another sharer may have drawn it since the caller looked.
  if (StreamChunk* c = link.load(std::memory_order_relaxed)) return c;
  assert(prev == nullptr ? drawn_ == 0 : prev->index + 1 == drawn_);
  auto chunk = std::make_unique_for_overwrite<StreamChunk>();
  chunk->index = drawn_;
  source_.fill(scratch_.data(), StreamChunk::kBlocks);
  std::uint64_t span = 0;
  for (std::size_t i = 0; i < StreamChunk::kBlocks; ++i) {
    const std::uint64_t off = scratch_[i] - base_block_;
    span |= off;
    chunk->offsets[i] = static_cast<std::uint32_t>(off);
  }
  if (span >= kWindowBlocks)
    throw std::logic_error("SharedStream: a block lies outside its core window");
  StreamChunk* const raw = chunk.get();
  live_.push_back(std::move(chunk));
  ++drawn_;
  g_live_chunks.fetch_add(1, std::memory_order_relaxed);
  link.store(raw, std::memory_order_release);
  return raw;
}

std::uint64_t SharedStream::min_place() const {
  std::uint64_t low = kFinished;
  for (unsigned i = 0; i < sharers_; ++i)
    low = std::min(low, places_[i].load(std::memory_order_acquire));
  return low;
}

void SharedStream::finish(const StreamCursor& cur) {
  places_[cur.sharer].store(kFinished, std::memory_order_release);
  free_passed();
}

void SharedStream::free_passed() {
  const common::LockGuard lock(mu_);
  const std::uint64_t low = min_place();
  while (!live_.empty() && live_.front()->index < low) {
    live_.pop_front();
    g_live_chunks.fetch_sub(1, std::memory_order_relaxed);
  }
  oldest_.store(live_.empty() ? drawn_ : live_.front()->index, std::memory_order_relaxed);
}

StreamSet::StreamSet(const std::vector<StreamKey>& uses) {
  std::map<StreamKey, unsigned> counts;
  for (const StreamKey& k : uses) ++counts[k];
  for (const auto& [key, n] : counts) {
    if (n < 2) continue;
    const AppProfile& p = spec_profile(key.app);
    if (!epoch_invariant(p)) continue;
    streams_.emplace(key, std::make_unique<SharedStream>(p, core_window_base(key.core),
                                                         core_seed(key.seed, key.core), n));
  }
}

SharedStream* StreamSet::find(const StreamKey& key) const {
  const auto it = streams_.find(key);
  return it == streams_.end() ? nullptr : it->second.get();
}

}  // namespace delta::workload
