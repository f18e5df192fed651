// Minimal command-line flag parser for the tools and examples.
//
// Supports `--name value` and `--name=value` forms plus boolean switches
// (`--flag`).  Unknown flags are collected so callers can reject them with
// a helpful message; positional arguments are preserved in order.  Numeric
// getters reject malformed values with a std::invalid_argument.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace delta {

class ArgParser {
 public:
  ArgParser(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        a = a.substr(2);
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
          flags_[a.substr(0, eq)] = a.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[a] = argv[++i];
        } else {
          flags_[a] = "";  // Boolean switch.
        }
        order_.push_back(a.substr(0, eq == std::string::npos ? a.size() : eq));
      } else {
        positional_.push_back(std::move(a));
      }
    }
  }

  bool has(const std::string& name) const { return flags_.contains(name); }

  std::string get(const std::string& name, const std::string& def = "") const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
  }

  /// The numeric getters: the whole value must parse, or they throw
  /// std::invalid_argument naming the flag and the offending text.
  std::int64_t get_int(const std::string& name, std::int64_t def) const {
    return parse(name, def, "an integer");
  }

  /// Seeds: all of [0, 2^64-1], in decimal or, after a `0x`/`0X` prefix,
  /// hexadecimal (the form the regression tests pin seeds in); a sign,
  /// junk or overflow throws, so `-1` never wraps.
  std::uint64_t get_u64(const std::string& name, std::uint64_t def) const {
    return parse(name, def, "a non-negative integer", /*hex_prefix=*/true);
  }

  /// Integer flag that must lie in [lo, INT_MAX]; anything else throws
  /// std::invalid_argument — never a silent clamp.
  int get_int_at_least(const std::string& name, int def, int lo) const {
    const std::int64_t v = get_int(name, def);
    if (v < lo)
      throw std::invalid_argument("--" + name + " must be >= " + std::to_string(lo) +
                                  ", got " + std::to_string(v));
    if (v > std::numeric_limits<int>::max())
      throw std::invalid_argument("--" + name + " is out of range, got " +
                                  std::to_string(v));
    return static_cast<int>(v);
  }

  double get_double(const std::string& name, double def) const {
    return parse(name, def, "a number");
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that are not in `known` — for strict validation.
  std::vector<std::string> unknown_flags(const std::vector<std::string>& known) const {
    std::vector<std::string> out;
    for (const auto& name : order_) {
      bool ok = false;
      for (const auto& k : known) ok |= (k == name);
      if (!ok) out.push_back(name);
    }
    return out;
  }

 private:
  template <typename T>
  T parse(const std::string& name, T def, const char* expects,
          bool hex_prefix = false) const {
    auto it = flags_.find(name);
    if (it == flags_.end() || it->second.empty()) return def;
    const std::string& v = it->second;
    const char* first = v.data();
    const char* const last = v.data() + v.size();
    T out{};
    std::from_chars_result r;
    if constexpr (std::is_integral_v<T>) {
      if (hex_prefix && v.size() > 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X')) {
        first += 2;
        r = std::from_chars(first, last, out, 16);
      } else {
        r = std::from_chars(first, last, out);
      }
    } else {
      r = std::from_chars(first, last, out);
    }
    if (r.ec != std::errc() || r.ptr != last)
      throw std::invalid_argument("--" + name + " expects " + expects + ", got '" + v +
                                  "'");
    return out;
  }

  std::map<std::string, std::string> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace delta
