#include "obs/prof/prof.hpp"

#include <algorithm>

namespace delta::obs::prof {

const char* to_string(ProfLevel lvl) {
  switch (lvl) {
    case ProfLevel::kOff: return "off";
    case ProfLevel::kFull: return "full";
  }
  return "?";
}

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::kEpoch: return "epoch";
    case Phase::kPolicy: return "policy";
    case Phase::kAccounting: return "accounting";
    case Phase::kStage: return "stage";
    case Phase::kApply: return "apply";
    case Phase::kReduce: return "reduce";
    case Phase::kPipeline: return "pipeline";
    case Phase::kSerialTail: return "serial_tail";
    case Phase::kBarrier: return "barrier";
    case Phase::kSweepJob: return "sweep_job";
    case Phase::kSweep: return "sweep";
    case Phase::kCount: break;
  }
  return "?";
}

std::string_view site_name(Site s) {
  switch (s) {
    case Site::kAccessBatch: return "access_batch";
    case Site::kStageCore: return "stage_core";
    case Site::kApplyBank: return "apply_bank";
    case Site::kReduceCore: return "reduce_core";
    case Site::kCount: break;
  }
  return "?";
}

void EngineTotals::merge(const EngineTotals& o) {
  for (std::size_t c = 0; c < counts.size(); ++c) counts[c] += o.counts[c];
  for (std::size_t h = 0; h < hists.size(); ++h) hists[h].merge(o.hists[h]);
}

std::uint64_t ProfSnapshot::phase_ns(Phase p) const {
  std::uint64_t total = 0;
  for (const Span& s : spans)
    if (s.phase == p) total += s.dur_ns;
  return total;
}

double ProfSnapshot::sweep_idle_share() const {
  double capacity = 0.0;
  for (const Span& s : spans)
    if (s.phase == Phase::kSweep)
      capacity += static_cast<double>(s.arg) * static_cast<double>(s.dur_ns);
  if (capacity <= 0.0) return 0.0;
  return (capacity - static_cast<double>(phase_ns(Phase::kSweepJob))) / capacity;
}

Profiler& Profiler::instance() {
  static Profiler p;
  return p;
}

Profiler::ThreadBuf& Profiler::local_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    const common::LockGuard lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    buf = bufs_.back().get();
    buf->tid = static_cast<std::uint32_t>(bufs_.size() - 1);
  }
  return *buf;
}

void Profiler::record_span(Phase p, std::uint64_t start_ns, std::uint64_t dur_ns,
                           std::uint64_t arg) {
  ThreadBuf& buf = local_buf();
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const common::LockGuard lock(buf.mu);
  if (buf.spans.size() >= kMaxSpansPerThread) {
    ++buf.dropped;
    return;
  }
  buf.spans.push_back(Span{seq, start_ns, dur_ns, arg, buf.tid, p});
}

void Profiler::add_site(Site s, std::uint64_t dur_ns) {
  ThreadBuf& buf = local_buf();
  const common::LockGuard lock(buf.mu);
  SiteTotal& t = buf.sites[static_cast<std::size_t>(s)];
  ++t.calls;
  t.ns += dur_ns;
  t.hist.add(dur_ns);
}

void Profiler::add_engine(const EngineTotals& t) {
  ThreadBuf& buf = local_buf();
  const common::LockGuard lock(buf.mu);
  buf.engine.merge(t);
}

ProfSnapshot Profiler::snapshot() const {
  ProfSnapshot out;
  out.level = level();
  // Copy the buffer list under the registry lock, then drain each buffer
  // under its own lock — recording threads only ever contend on their own
  // buffer's mutex, never on the registry's.
  std::vector<const ThreadBuf*> bufs;
  {
    const common::LockGuard lock(mu_);
    bufs.reserve(bufs_.size());
    for (const auto& b : bufs_) bufs.push_back(b.get());
  }
  for (const ThreadBuf* b : bufs) {
    const common::LockGuard lock(b->mu);
    out.spans.insert(out.spans.end(), b->spans.begin(), b->spans.end());
    out.dropped_spans += b->dropped;
    for (std::size_t s = 0; s < out.sites.size(); ++s) {
      out.sites[s].calls += b->sites[s].calls;
      out.sites[s].ns += b->sites[s].ns;
      out.sites[s].hist.merge(b->sites[s].hist);
    }
    out.engine.merge(b->engine);
  }
  std::sort(out.spans.begin(), out.spans.end(),
            [](const Span& a, const Span& b) { return a.seq < b.seq; });
  return out;
}

void Profiler::clear() {
  std::vector<ThreadBuf*> bufs;
  {
    const common::LockGuard lock(mu_);
    bufs.reserve(bufs_.size());
    for (const auto& b : bufs_) bufs.push_back(b.get());
  }
  for (ThreadBuf* b : bufs) {
    const common::LockGuard lock(b->mu);
    b->spans.clear();
    b->dropped = 0;
    for (SiteTotal& t : b->sites) {
      t.calls = 0;
      t.ns = 0;
      t.hist.reset();
    }
    b->engine = EngineTotals{};
  }
}

EngineProfile::EngineProfile(unsigned workers)
    : workers_(workers == 0 ? 1 : workers),
      slots_(workers_),
      tasks_(workers_),
      epoch_busy_(workers_, 0) {}

void EngineProfile::begin_section(std::uint64_t epoch) {
  armed_ = enabled();
  if (!armed_) return;
  epoch_arg_ = epoch;
  for (WorkerSlot& s : slots_) s = WorkerSlot{};
  for (TaskSlot& t : tasks_) t = TaskSlot{};
}

void EngineProfile::section_begin(unsigned worker) {
  if (!armed_) return;
  slots_[static_cast<std::size_t>(worker)].begin_ns = now_ns();
}

void EngineProfile::flush_task(unsigned worker, std::uint64_t now) {
  TaskSlot& t = tasks_[static_cast<std::size_t>(worker)];
  if (!t.open) return;
  Profiler::instance().record_span(t.phase, t.start_ns, now - t.start_ns, epoch_arg_);
  t.open = false;
}

void EngineProfile::task_begin(unsigned worker, Phase p) {
  if (!armed_) return;
  TaskSlot& t = tasks_[static_cast<std::size_t>(worker)];
  if (t.open && t.phase == p) return;  // Extend the run of same-kind tasks.
  const std::uint64_t now = now_ns();
  flush_task(worker, now);
  t.phase = p;
  t.start_ns = now;
  t.open = true;
}

void EngineProfile::work_done(unsigned worker) {
  if (!armed_) return;
  const std::uint64_t now = now_ns();
  flush_task(worker, now);
  slots_[static_cast<std::size_t>(worker)].done_ns = now;
}

void EngineProfile::end_section() {
  if (!armed_) return;
  // The done barrier has released the owner, so every slot is final.  A
  // worker's barrier wait is the gap from its own work_done to the last
  // work_done in the section — a lower bound that excludes only the condvar
  // wake-up latency.
  std::uint64_t last_done = 0;
  for (const WorkerSlot& s : slots_) last_done = std::max(last_done, s.done_ns);
  Profiler& prof = Profiler::instance();
  for (unsigned w = 0; w < workers_; ++w) {
    const WorkerSlot& s = slots_[w];
    if (s.done_ns < s.begin_ns || s.begin_ns == 0) continue;  // Idle party.
    const std::uint64_t busy = s.done_ns - s.begin_ns;
    const std::uint64_t wait = last_done - s.done_ns;
    prof.record_span(Phase::kPipeline, s.begin_ns, busy, epoch_arg_);
    if (wait > 0) prof.record_span(Phase::kBarrier, s.done_ns, wait, epoch_arg_);
    epoch_[Counter::kBarrierNs] += wait;
    epoch_[Counter::kSectionNs] += busy + wait;
    epoch_busy_[w] += busy;
  }
}

void EngineProfile::end_epoch(std::uint64_t tasks, std::uint64_t stolen) {
  if (!armed_) return;
  std::uint64_t max_busy = 0, sum_busy = 0;
  for (std::uint64_t b : epoch_busy_) {
    max_busy = std::max(max_busy, b);
    sum_busy += b;
  }
  if (sum_busy > 0) {
    const double mean =
        static_cast<double>(sum_busy) / static_cast<double>(workers_);
    epoch_[Hist::kEpochImbalanceMilli].add(
        static_cast<std::uint64_t>(static_cast<double>(max_busy) / mean * 1000.0));
  }
  const std::uint64_t section = epoch_[Counter::kSectionNs];
  if (section > 0)
    epoch_[Hist::kEpochBarrierPpm].add(static_cast<std::uint64_t>(
        static_cast<double>(epoch_[Counter::kBarrierNs]) /
        static_cast<double>(section) * 1e6));
  epoch_[Counter::kEpochs] = 1;
  epoch_[Counter::kTasks] = tasks;
  epoch_[Counter::kTasksStolen] = stolen;
  Profiler::instance().add_engine(epoch_);
  epoch_ = EngineTotals{};
  for (std::uint64_t& b : epoch_busy_) b = 0;
}

}  // namespace delta::obs::prof
