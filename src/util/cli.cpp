#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace nc {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      // std::string("1") sidesteps GCC 12's -Wrestrict false positive on
      // basic_string::operator=(const char*) at -O2 (GCC PR105329).
      kv_[arg] = std::string("1");
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

std::string Args::get(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

namespace {

/// Parses all of flag `key`'s value `text` as a T with std::from_chars, or
/// throws naming the flag; `what` names the expected form.
template <typename T>
T parse_whole(const std::string& key, const std::string& text,
              const char* what) {
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("--" + key + " is out of range: '" + text +
                                "'");
  }
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("--" + key + " expects " + what + ", got '" +
                                text + "'");
  }
  return out;
}

}  // namespace

std::int64_t Args::get_int(const std::string& key, std::int64_t def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return parse_whole<std::int64_t>(key, it->second, "an integer");
}

double Args::get_double(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  const auto value = parse_whole<double>(key, it->second, "a number");
  if (!std::isfinite(value)) {
    throw std::invalid_argument("--" + key + " is out of range: '" +
                                it->second + "'");
  }
  return value;
}

bool Args::get_bool(const std::string& key, bool def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second != "0" && it->second != "false";
}

bool Args::has(const std::string& key) const { return kv_.count(key) > 0; }

void Args::reject_unknown(const std::string& command,
                          const std::vector<std::string>& flags) const {
  for (const auto& [key, value] : kv_) {
    if (std::find(flags.begin(), flags.end(), key) != flags.end()) continue;
    std::string msg =
        "unknown flag '--" + key + "' for '" + command + "'; its flags:";
    for (const auto& flag : flags) msg += " --" + flag;
    throw std::invalid_argument(msg);
  }
}

}  // namespace nc
