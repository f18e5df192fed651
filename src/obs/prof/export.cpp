#include "obs/prof/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <set>
#include <utility>

#include "common/appendf.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"

namespace delta::obs::prof {
namespace {

void append_histogram_json(std::string& out, const LogHistogram& h) {
  appendf(out, "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"mean\":%s,"
               "\"p50\":%" PRIu64 ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
          h.total(), h.sum(), json_num(h.mean()).c_str(), h.quantile(0.5),
          h.quantile(0.95), h.quantile(0.99));
}

/// Microseconds per simulator epoch: one epoch = i_intra = 0.1 ms.
constexpr double kUsPerEpoch = 100.0;

void append_counter(std::string& out, std::uint32_t run, double ts,
                    const std::string& name, const char* key, double value) {
  appendf(out, "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%u,\"tid\":0,\"ts\":%.1f,"
               "\"args\":{\"%s\":%s}},\n",
          name.c_str(), run, ts, key, json_num(value).c_str());
}

/// Appends the observer's trace entries (process/thread metadata, policy
/// instants, timeline counters) to `out`, each terminated by ",\n".
void append_chrome_trace_events(std::string& out, const Observer& obs) {
  // Metadata: one trace process per run (scheme), named tile tracks.
  std::set<std::pair<std::uint32_t, int>> tids;
  for (const Event& e : obs.events().events())
    tids.insert({e.run, e.core >= 0 ? e.core : 0});
  const std::size_t runs =
      obs.run_names().empty() ? (tids.empty() ? 0 : 1) : obs.run_names().size();
  for (std::uint32_t r = 0; r < runs; ++r)
    appendf(out, "{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"%s\"}},\n",
            r, json_escape(obs.run_name(r)).c_str());
  for (const auto& [run, tid] : tids)
    appendf(out, "{\"ph\":\"M\",\"pid\":%u,\"tid\":%d,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"tile %d\"}},\n",
            run, tid, tid);

  // Policy events: instant events on the acting tile's track.
  for (const Event& e : obs.events().events()) {
    appendf(out, "{\"name\":\"%s\",\"cat\":\"policy\",\"ph\":\"i\",\"s\":\"t\","
                 "\"ts\":%.1f,\"pid\":%u,\"tid\":%d,\"args\":{\"bank\":%d,"
                 "\"peer\":%d,\"count\":%u,\"a\":%s,\"b\":%s}},\n",
            std::string(event_kind_name(e.kind)).c_str(),
            static_cast<double>(e.epoch) * kUsPerEpoch, e.run,
            e.core >= 0 ? e.core : 0, e.bank, e.other, e.count,
            json_num(e.a).c_str(), json_num(e.b).c_str());
  }

  // Timeline counters (allocated ways / IPC per core, MCU queueing).
  for (const CoreSample& s : obs.timeline().cores()) {
    const double ts = static_cast<double>(s.epoch) * kUsPerEpoch;
    char name[32];
    std::snprintf(name, sizeof name, "ways core%d", s.core);
    append_counter(out, s.run, ts, name, "ways", s.ways);
    std::snprintf(name, sizeof name, "ipc core%d", s.core);
    append_counter(out, s.run, ts, name, "ipc", s.ipc);
  }
  for (const McuSample& s : obs.timeline().mcus()) {
    const double ts = static_cast<double>(s.epoch) * kUsPerEpoch;
    char name[32];
    std::snprintf(name, sizeof name, "mcu%d queue", s.mcu);
    append_counter(out, s.run, ts, name, "cycles",
                   static_cast<double>(s.queue_delay));
    std::snprintf(name, sizeof name, "mcu%d util", s.mcu);
    append_counter(out, s.run, ts, name, "util", s.utilization);
  }
}

}  // namespace

std::string prof_trace_json(const ProfSnapshot& snap, const Observer* obs) {
  std::string out = "{\"traceEvents\":[\n";
  if (obs != nullptr) append_chrome_trace_events(out, *obs);

  // The engine process and its thread tracks exist only when there are
  // spans to put on them (a policy-only trace has none).
  if (!snap.spans.empty())
    appendf(out, "{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"engine prof (wall clock, level %s)\"}},\n",
            kProfTracePid, to_string(snap.level));
  std::set<std::uint32_t> tids;
  for (const Span& s : snap.spans) tids.insert(s.tid);
  for (const std::uint32_t tid : tids)
    appendf(out, "{\"ph\":\"M\",\"pid\":%u,\"tid\":%u,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"thread %u\"}},\n",
            kProfTracePid, tid, tid);

  // Phase spans: complete ("X") events in wall-clock microseconds.  The
  // policy events above live in virtual epoch time under their run pids, so
  // the two timelines sit side by side as separate processes in Perfetto.
  for (const Span& s : snap.spans) {
    appendf(out, "{\"name\":\"%.*s\",\"cat\":\"prof\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"epoch\":%" PRIu64 ",\"seq\":%" PRIu64 "}},\n",
            static_cast<int>(phase_name(s.phase).size()),
            phase_name(s.phase).data(),
            static_cast<double>(s.start_ns) / 1e3,
            static_cast<double>(s.dur_ns) / 1e3, kProfTracePid, s.tid, s.arg,
            s.seq);
  }

  // Trailing comma cleanup: drop the final ",\n" if any entry was written.
  if (out.size() >= 2 && out[out.size() - 2] == ',') out.erase(out.size() - 2, 1);
  appendf(out, "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
               "\"prof_spans\":%zu,\"prof_dropped_spans\":%" PRIu64,
          snap.spans.size(), snap.dropped_spans);
  if (obs != nullptr)
    appendf(out, ",\"dropped_events\":%" PRIu64 ",\"recorded_events\":%zu",
            obs->events().dropped(), obs->events().size());
  out += "}}\n";
  return out;
}

std::string metrics_json(const ProfSnapshot& snap) {
  std::string out = "{\n  \"schema\": \"delta-prof-metrics-v1\",\n";
  appendf(out, "  \"level\": \"%s\",\n", to_string(snap.level));

  // The ratios come from the totals over every run in the process, so a
  // dump of many runs weighs each by its share of the work.
  const EngineTotals& e = snap.engine;
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const LogHistogram& imbalance = e[Hist::kEpochImbalanceMilli];
  const auto number = [&out](const char* name, double v) {
    appendf(out, "    \"%s\": %s,\n", name, json_num(v).c_str());
  };
  const auto count = [&out, &e](const char* name, Counter c) {
    appendf(out, "    \"%s\": %" PRIu64 ",\n", name, e[c]);
  };
  const auto histogram = [&out](const char* name, const LogHistogram& h) {
    appendf(out, "    \"%s\": ", name);
    append_histogram_json(out, h);
    out += ",\n";
  };
  out += "  \"metrics\": {\n";
  histogram("delta_intra_bank_buffer_occupancy", e[Hist::kBufferOccupancy]);
  count("delta_intra_bank_buffer_pairs_nonzero", Counter::kBufferPairsNonzero);
  count("delta_intra_bank_buffer_pairs_total", Counter::kBufferPairs);
  number("delta_intra_barrier_wait_fraction",
         ratio(e[Counter::kBarrierNs], e[Counter::kSectionNs]));
  histogram("delta_intra_epoch_barrier_wait_ppm", e[Hist::kEpochBarrierPpm]);
  histogram("delta_intra_epoch_imbalance_milli", imbalance);
  count("delta_intra_epochs_total", Counter::kEpochs);
  number("delta_intra_steal_fraction",
         ratio(e[Counter::kTasksStolen], e[Counter::kTasks]));
  count("delta_intra_tasks_stolen_total", Counter::kTasksStolen);
  count("delta_intra_tasks_total", Counter::kTasks);
  number("delta_intra_worker_imbalance_ratio",
         ratio(imbalance.sum(), imbalance.total()) / 1000.0);
  out.erase(out.size() - 2, 1);  // The last metric's comma.
  out += "  },\n";

  out += "  \"phase_ns\": {\n";
  for (std::size_t p = 0; p < static_cast<std::size_t>(Phase::kCount); ++p) {
    const Phase ph = static_cast<Phase>(p);
    appendf(out, "    \"%.*s\": %" PRIu64,
            static_cast<int>(phase_name(ph).size()), phase_name(ph).data(),
            snap.phase_ns(ph));
    out += p + 1 < static_cast<std::size_t>(Phase::kCount) ? ",\n" : "\n";
  }
  out += "  },\n";
  out += "  \"sweep_idle_share\": " + json_num(snap.sweep_idle_share()) + ",\n";

  out += "  \"sites\": {\n";
  for (std::size_t s = 0; s < snap.sites.size(); ++s) {
    const Site site = static_cast<Site>(s);
    const SiteTotal& t = snap.sites[s];
    appendf(out, "    \"%.*s\": {\"calls\":%" PRIu64 ",\"ns\":%" PRIu64
                 ",\"hist\":",
            static_cast<int>(site_name(site).size()), site_name(site).data(),
            t.calls, t.ns);
    append_histogram_json(out, t.hist);
    out += "}";
    out += s + 1 < snap.sites.size() ? ",\n" : "\n";
  }
  out += "  },\n";

  appendf(out, "  \"spans\": %zu,\n  \"dropped_spans\": %" PRIu64 "\n}\n",
          snap.spans.size(), snap.dropped_spans);
  return out;
}

}  // namespace delta::obs::prof
