// Record a synthetic application's post-L2 trace to disk, replay it through
// a stand-alone LLC + UMON, and compare the replayed miss curve against the
// live generator's — the workflow a user with *real* traces would follow
// (see workload/trace_io.hpp).
//
//   $ ./trace_replay [app] [accesses]      # defaults: mcf, 500000
//
// A bad access count or a trace I/O failure ends with one
// `trace_replay: ...` line and exit 1.
#include <charconv>
#include <cstdio>
#include <exception>
#include <string>
#include <system_error>

#include "mem/cache.hpp"
#include "umon/umon.hpp"
#include "workload/generator.hpp"
#include "workload/spec.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace delta;

/// The access count: a whole positive decimal number (no sign, no junk).
bool parse_count(const std::string& text, std::uint64_t& n) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  return ec == std::errc() && ptr == end && n > 0;
}

void record_and_replay(const workload::AppProfile& profile, std::uint64_t n) {
  const std::string path = "/tmp/delta_" + profile.short_name + ".dlt";

  // 1. Record.
  {
    workload::TraceGen gen(profile, 0, 42);
    workload::TraceWriter w(path);
    for (std::uint64_t i = 0; i < n; ++i) w.append(gen.next());
    w.close();
    std::printf("recorded %llu accesses of %s to %s\n",
                static_cast<unsigned long long>(w.written()), profile.name.c_str(),
                path.c_str());
  }

  // 2. Replay through a 512 KB LLC bank and a UMON monitor.
  workload::TraceReader reader(path);
  mem::SetAssocCache cache(512, 16);
  umon::UmonConfig ucfg;
  ucfg.max_ways = 192;
  umon::Umon umon(ucfg);
  for (std::uint64_t i = 0; i < n; ++i) {
    const BlockAddr b = reader.next();
    cache.access(static_cast<std::uint32_t>(b & 511), b, 0, mem::full_mask(16));
    umon.access(b);
  }
  std::printf("replayed: 512KB LLC miss rate %.3f\n", cache.stats().miss_rate());

  const umon::MissCurve mc = umon.miss_curve();
  std::printf("replayed UMON miss curve (fraction of accesses missing):\n");
  for (int w = 0; w <= 192; w += 16)
    std::printf("  %3d ways (%4.1f MB): %.3f\n", w, w * 32.0 / 1024.0,
                mc.at(w) / umon.accesses());

  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "mc";
  std::uint64_t n = 500'000;
  if (argc > 2 && !parse_count(argv[2], n)) {
    std::fprintf(stderr, "trace_replay: accesses must be a positive integer, got '%s'\n",
                 argv[2]);
    return 1;
  }
  if (!workload::has_spec_profile(app)) {
    std::fprintf(stderr, "trace_replay: unknown app '%s'\n", app.c_str());
    return 1;
  }
  try {
    record_and_replay(workload::spec_profile(app), n);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_replay: %s\n", e.what());
    return 1;
  }
  return 0;
}
