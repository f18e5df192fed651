#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/appendf.hpp"

namespace delta::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", x);
  return buf;
}

std::string timeline_csv_header() {
  return "entity,run,scheme,epoch,id,app,ipc,ways,accesses,misses,miss_rate,"
         "avg_latency,queue_delay,utilization,control_msgs,demand_msgs,"
         "invalidation_msgs,invalidated_lines";
}

std::string timeline_csv(const Observer& obs) {
  const TimelineSampler& tl = obs.timeline();
  std::string out = timeline_csv_header() + "\n";
  for (const CoreSample& s : tl.cores()) {
    const double miss_rate =
        s.accesses ? static_cast<double>(s.misses) / static_cast<double>(s.accesses)
                   : 0.0;
    appendf(out, "core,%u,%s,%" PRIu64 ",%d,%s,%s,%d,%" PRIu64 ",%" PRIu64
                 ",%s,%s,,,,,,\n",
            s.run, std::string(obs.run_name(s.run)).c_str(), s.epoch, s.core,
            s.app.c_str(), json_num(s.ipc).c_str(), s.ways, s.accesses, s.misses,
            json_num(miss_rate).c_str(), json_num(s.avg_latency).c_str());
  }
  for (const McuSample& s : tl.mcus()) {
    appendf(out, "mcu,%u,%s,%" PRIu64 ",%d,,,,,,,,%" PRIu64 ",%s,,,,\n",
            s.run, std::string(obs.run_name(s.run)).c_str(), s.epoch, s.mcu,
            s.queue_delay, json_num(s.utilization).c_str());
  }
  for (const ChipSample& s : tl.chips()) {
    appendf(out, "chip,%u,%s,%" PRIu64 ",,,,,,,,,,,%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 "\n",
            s.run, std::string(obs.run_name(s.run)).c_str(), s.epoch,
            s.control_msgs, s.demand_msgs, s.invalidation_msgs,
            s.invalidated_lines);
  }
  return out;
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok && written != content.size()) std::fclose(f);
  return ok;
}

}  // namespace delta::obs
