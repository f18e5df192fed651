#include "sim/report.hpp"

#include <cinttypes>

#include "common/appendf.hpp"
#include "common/stats.hpp"
#include "obs/export.hpp"

namespace delta::sim {
namespace {

using obs::json_escape;
using obs::json_num;

void append_app_json(std::string& out, const AppResult& a) {
  appendf(out,
          "{\"core\":%d,\"app\":\"%s\",\"ipc\":%s,\"cpi\":%s,\"mpki\":%s,"
          "\"miss_rate\":%s,\"avg_latency\":%s,\"avg_hops\":%s,\"avg_ways\":%s,"
          "\"instructions\":%" PRIu64 ",\"llc_accesses\":%" PRIu64
          ",\"llc_misses\":%" PRIu64 "}",
          a.core, json_escape(a.app).c_str(), json_num(a.ipc).c_str(),
          json_num(a.cpi).c_str(), json_num(a.mpki).c_str(),
          json_num(a.miss_rate).c_str(), json_num(a.avg_latency).c_str(),
          json_num(a.avg_hops).c_str(), json_num(a.avg_ways).c_str(),
          a.instructions, a.llc_accesses, a.llc_misses);
}

void append_result_json(std::string& out, const MixResult& r) {
  appendf(out, "{\"mix\":\"%s\",\"scheme\":\"%s\",\"geomean_ipc\":%s,"
               "\"measured_epochs\":%" PRIu64 ",\"invalidated_lines\":%" PRIu64 ",",
          json_escape(r.mix).c_str(), json_escape(r.scheme).c_str(),
          json_num(r.geomean_ipc).c_str(), r.measured_epochs, r.invalidated_lines);
  out += "\"traffic\":{";
  for (int t = 0; t < static_cast<int>(noc::MsgType::kCount); ++t) {
    const auto type = static_cast<noc::MsgType>(t);
    appendf(out, "%s\"%s\":%" PRIu64, t == 0 ? "" : ",",
            std::string(noc::msg_type_name(type)).c_str(), r.traffic.total(type));
  }
  appendf(out, "},\"control\":{\"challenge\":%" PRIu64 ",\"feedback\":%" PRIu64
               ",\"invalidation\":%" PRIu64 ",\"handover\":%" PRIu64
               ",\"central\":%" PRIu64 ",\"market\":%" PRIu64
               ",\"total\":%" PRIu64 "},",
          r.control.challenge, r.control.feedback, r.control.invalidation,
          r.control.handover, r.control.central, r.control.market,
          r.control.total());
  out += "\"apps\":[";
  for (std::size_t i = 0; i < r.apps.size(); ++i) {
    if (i != 0) out += ',';
    append_app_json(out, r.apps[i]);
  }
  out += "]}";
}

}  // namespace

std::string csv_header() {
  return "mix,scheme,core,app,ipc,mpki,miss_rate,avg_latency,avg_hops,avg_ways,"
         "llc_accesses,llc_misses";
}

std::string csv_rows(const MixResult& r) {
  std::string out;
  for (const auto& a : r.apps)
    appendf(out, "%s,%s,%d,%s,%.4f,%.2f,%.4f,%.2f,%.2f,%.1f,%" PRIu64 ",%" PRIu64
                 "\n",
            r.mix.c_str(), r.scheme.c_str(), a.core, a.app.c_str(), a.ipc, a.mpki,
            a.miss_rate, a.avg_latency, a.avg_hops, a.avg_ways, a.llc_accesses,
            a.llc_misses);
  return out;
}

std::string text_report(const MixResult& r, const MixResult* baseline) {
  std::string out;
  appendf(out, "\n== %s on %s ==\n", r.scheme.c_str(), r.mix.c_str());
  TextTable t({"core", "app", "ipc", "mpki", "miss%", "lat", "hops", "ways"});
  for (const auto& a : r.apps)
    t.add_row({std::to_string(a.core), a.app, fmt(a.ipc, 3), fmt(a.mpki, 1),
               fmt(100 * a.miss_rate, 1), fmt(a.avg_latency, 1), fmt(a.avg_hops, 2),
               fmt(a.avg_ways, 1)});
  out += t.str();
  appendf(out, "workload geomean IPC %.4f", r.geomean_ipc);
  if (baseline != nullptr && baseline != &r)
    appendf(out, "  (%.3fx vs %s)", speedup(r, *baseline), baseline->scheme.c_str());
  appendf(out, "; control msgs %" PRIu64 " (challenge %" PRIu64 ", feedback %" PRIu64
               ", invalidation %" PRIu64 ", handover %" PRIu64 ", central %" PRIu64
               ", market %" PRIu64 "), demand msgs %" PRIu64
               ", invalidated lines %" PRIu64 "\n",
          r.control.total(), r.control.challenge, r.control.feedback,
          r.control.invalidation, r.control.handover, r.control.central,
          r.control.market, r.traffic.demand_messages(), r.invalidated_lines);
  return out;
}

std::string json_summary(std::span<const MixResult> results,
                         const obs::Observer* obs) {
  std::string out = "{\"schema_version\":1,\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 0) out += ',';
    append_result_json(out, results[i]);
  }
  out += "]";
  if (obs != nullptr) {
    appendf(out, ",\"observability\":{\"level\":\"%s\",\"events_recorded\":%zu,"
                 "\"events_dropped\":%" PRIu64 ",\"timeline_rows\":%zu,\"runs\":[",
            std::string(to_string(obs->level())).c_str(), obs->events().size(),
            obs->events().dropped(),
            obs->timeline().cores().size() + obs->timeline().mcus().size() +
                obs->timeline().chips().size());
    for (std::size_t i = 0; i < obs->run_names().size(); ++i)
      appendf(out, "%s\"%s\"", i == 0 ? "" : ",",
              json_escape(obs->run_names()[i]).c_str());
    out += "],\"events_by_kind\":{";
    bool first = true;
    for (int k = 0; k < obs::kNumEventKinds; ++k) {
      const auto kind = static_cast<obs::EventKind>(k);
      const std::uint64_t n = obs->events().count_of(kind);
      if (n == 0) continue;
      appendf(out, "%s\"%s\":%" PRIu64, first ? "" : ",",
              std::string(obs::event_kind_name(kind)).c_str(), n);
      first = false;
    }
    out += "}}";
  }
  out += "}\n";
  return out;
}

}  // namespace delta::sim
