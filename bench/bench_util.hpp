// Shared plumbing for the figure/table reproduction harnesses.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/abort_flush.hpp"
#include "common/args.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "obs/outputs.hpp"
#include "sim/runner.hpp"

namespace delta::bench {

/// The one command line of every bench main.  Construct it first thing in
/// main(argc, argv).  Every bench accepts
///   --jobs N   worker threads for its sweeps: 0 (the default) is every
///              hardware thread, 1 the serial run, whose output is
///              byte-identical by construction.  Precedence: flag >
///              DELTA_JOBS environment variable > 0; the env var is the one
///              knob that pins every harness at once.
///   --prof-out / --metrics-out   self-profiling with delta_sim's
///              semantics (obs::Outputs); the destructor writes them.
/// plus its own `extra` flags ("fig", "out", "quick", "reps").  An unknown
/// or repeated flag, a positional argument or a malformed value prints
/// `<bench>: <message>` and exits 2 before any simulation runs.
class Cli {
 public:
  Cli(int argc, char** argv, std::initializer_list<const char*> extra = {})
      : name_(std::string(argv[0]).substr(std::string(argv[0]).rfind('/') + 1)),
        args_(argc, argv) {
    std::vector<std::string> known = {"jobs", "prof-out", "metrics-out"};
    known.insert(known.end(), extra.begin(), extra.end());
    const std::vector<std::string> unknown = args_.unknown_flags(known);
    if (!unknown.empty()) fail("unknown flag --" + unknown.front());
    if (!args_.positional().empty())
      fail("unexpected argument '" + args_.positional().front() + "'");
    try {
      args_.reject_repeated();
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    if (args_.has("jobs")) {
      jobs_ = parse_count("--jobs", args_.get("jobs"));
    } else if (const char* env = std::getenv("DELTA_JOBS");
               env != nullptr && *env != '\0') {
      jobs_ = parse_count("DELTA_JOBS", env);
    }
    try {
      outputs_.emplace(args_);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    install_abort_flush();
  }

  ~Cli() { (void)outputs_->write(nullptr); }

  Cli(const Cli&) = delete;
  Cli& operator=(const Cli&) = delete;

  unsigned jobs() const { return jobs_; }
  bool has(const std::string& flag) const { return args_.has(flag); }

  /// A boolean switch; a value after it is an error.
  bool has_switch(const std::string& flag) const {
    try {
      return args_.has_switch(flag);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }

  /// Value of a value-taking flag, `def` when absent.
  std::string get(const std::string& flag, const std::string& def = "") const {
    if (args_.has(flag) && args_.get(flag).empty()) fail("--" + flag + " needs a value");
    return args_.get(flag, def);
  }

  /// Integer flag in [lo, INT_MAX], `def` when absent.
  int get_int_at_least(const std::string& flag, int def, int lo) const {
    try {
      return args_.get_int_at_least(flag, def, lo);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }

  /// Prints `<bench>: <msg>` and exits 2: the end of every bad command line.
  [[noreturn]] void fail(const std::string& msg) const {
    std::fprintf(stderr, "%s: %s\n", name_.c_str(), msg.c_str());
    std::exit(2);
  }

 private:
  /// A whole non-negative integer that fits an int; `what` names the source.
  unsigned parse_count(const std::string& what, const std::string& text) const {
    int v = -1;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size() || v < 0)
      fail(what + " expects a non-negative integer, got '" + text + "'");
    return static_cast<unsigned>(v);
  }

  std::string name_;
  ArgParser args_;
  unsigned jobs_ = 0;
  std::optional<obs::Outputs> outputs_;
};

/// Index-ordered parallel map: `out[i] = fn(i)` for i in [0, n), fanned
/// over `jobs` threads with results in pre-sized slots.  For bench loops
/// whose per-item work is not a full mix run (splash estimates, sharing
/// measurements, multithreaded runs).
template <typename Fn>
auto parallel_map(std::size_t n, unsigned jobs, Fn&& fn) {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = fn(i); }, jobs);
  return out;
}

/// The banner every harness report starts with.
inline std::string header(const std::string& title, const std::string& paper_ref) {
  const std::string rule(62, '=');
  return rule + "\n" + title + "\nReproduces: " + paper_ref + "\n" + rule + "\n";
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::fputs(header(title, paper_ref).c_str(), stdout);
}

}  // namespace delta::bench
