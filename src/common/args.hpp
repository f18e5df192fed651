// Minimal command-line flag parser for the tools and examples.
//
// Supports `--name value` and `--name=value` forms plus boolean switches
// (`--flag`).  Unknown flags are collected so callers can reject them with
// a helpful message; positional arguments are preserved in order, and a
// flag given twice is remembered for reject_repeated().  A numeric flag
// given without a value or with a malformed one throws
// std::invalid_argument naming the flag.
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
        std::string name = a.substr(0, eq);
        std::string value;
        if (eq != std::string::npos) {
          value = a.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          value = argv[++i];
        }  // Else a boolean switch: empty value.
        if (flags_.contains(name) && repeated_.empty()) repeated_ = name;
        flags_[name] = std::move(value);
        order_.push_back(std::move(name));
      } else {
        positional_.push_back(std::move(a));
      }
    }
  }

  bool has(const std::string& name) const { return flags_.contains(name); }

  /// A boolean switch: true when given.  A value after it (`--csv 5`,
  /// `--csv=5`) throws instead of being dropped.
  bool has_switch(const std::string& name) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return false;
    if (!it->second.empty())
      throw std::invalid_argument("--" + name + " takes no value, got '" + it->second +
                                  "'");
    return true;
  }

  std::string get(const std::string& name, const std::string& def = "") const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
  }

  /// The numeric getters: `def` when the flag is absent; otherwise the
  /// whole value must parse, or they throw std::invalid_argument naming the
  /// flag and the offending text (an empty value too).
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

  /// Throws std::invalid_argument naming the first flag given more than
  /// once (the getters read its last value) — for strict validation.
  void reject_repeated() const {
    if (!repeated_.empty())
      throw std::invalid_argument("--" + repeated_ + " is given more than once");
  }

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
    if (it == flags_.end()) return def;
    const std::string& v = it->second;
    if (v.empty()) throw std::invalid_argument("--" + name + " needs a value");
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
  std::string repeated_;
};

}  // namespace delta
