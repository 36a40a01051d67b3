#include "util/paramset.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace nc {

namespace {

[[noreturn]] void missing_key(const std::string& key) {
  throw std::invalid_argument("parameter '" + key + "' is not set");
}

constexpr double kMaxExact = 9007199254740992.0;  // 2^53

// A numeric param as describe_params prints it: an integral value as an
// integer (1000000, not 1e+06), anything else in the shortest form that
// parses back to the same double (0.2, 1e-05).
std::string describe_param_value(double value) {
  if (std::abs(value) <= kMaxExact && value == std::floor(value)) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  char buf[32];  // the shortest round-trip form is at most 24 characters
  const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  return std::string(buf, end);
}

std::uint64_t checked_count(const std::string& key, double value) {
  if (!(value >= 0.0 && value <= kMaxExact) || value != std::floor(value)) {
    std::ostringstream os;
    os << "parameter '" << key << "' must be an integer in [0, 2^53], got "
       << value;
    throw std::invalid_argument(os.str());
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

std::string join_comma(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += ", ";
    out += p;
  }
  return out;
}

double ParamSet::get_double(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    if (strings_.contains(key)) {
      throw std::invalid_argument("parameter '" + key +
                                  "' is a string, not a number");
    }
    missing_key(key);
  }
  return it->second;
}

std::int64_t ParamSet::get_int(const std::string& key) const {
  return std::llround(get_double(key));
}

bool ParamSet::get_bool(const std::string& key) const {
  return get_double(key) != 0.0;
}

const std::string& ParamSet::get_string(const std::string& key) const {
  const auto it = strings_.find(key);
  if (it == strings_.end()) {
    if (values_.contains(key)) {
      throw std::invalid_argument("parameter '" + key +
                                  "' is a number, not a string");
    }
    missing_key(key);
  }
  return it->second;
}

double ParamSet::get_double_or(const std::string& key, double def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::uint64_t ParamSet::get_count(const std::string& key) const {
  return checked_count(key, get_double(key));
}

std::uint64_t ParamSet::get_count_or(const std::string& key,
                                     std::uint64_t def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : checked_count(key, it->second);
}

std::vector<std::string> ParamSet::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size() + strings_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  for (const auto& [k, v] : strings_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

ParamSet merge_params(const ParamSet& defaults, const ParamSet& overrides,
                      const std::string& context) {
  ParamSet merged = defaults;
  const auto unknown = [&](const std::string& key) -> std::invalid_argument {
    return std::invalid_argument(context + " has no parameter '" + key +
                                 "'; parameters: " +
                                 join_comma(defaults.keys()));
  };
  for (const auto& [key, value] : overrides.values()) {
    if (defaults.has_string(key)) {
      throw std::invalid_argument(context + " parameter '" + key +
                                  "' expects a string value");
    }
    if (!defaults.has_number(key)) throw unknown(key);
    merged.with(key, value);
  }
  for (const auto& [key, value] : overrides.strings()) {
    if (defaults.has_number(key)) {
      throw std::invalid_argument(context + " parameter '" + key +
                                  "' expects a numeric value");
    }
    if (!defaults.has_string(key)) throw unknown(key);
    merged.with(key, value);
  }
  return merged;
}

ParamSet parse_params_csv(const std::string& csv, const ParamSet* declared) {
  ParamSet out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("malformed parameter '" + item +
                                  "' (expected key=value)");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (declared != nullptr && declared->has_string(key)) {
      out.with(key, value);
      continue;
    }
    out.with(key, parse_number(value, "parameter value for key '" + key + "'"));
  }
  return out;
}

double parse_number(const std::string& text, const std::string& what) {
  if (text == "true") return 1.0;
  if (text == "false") return 0.0;
  try {
    std::size_t used = 0;
    const double parsed = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("malformed " + what + " '" + text + "'");
  }
}

std::string describe_params(const ParamSet& params) {
  std::ostringstream os;
  for (const auto& [key, value] : params.values()) {
    os << " " << key << "=" << describe_param_value(value);
  }
  for (const auto& [key, value] : params.strings()) {
    os << " " << key << "=" << (value.empty() ? "<unset>" : value);
  }
  return os.str();
}

}  // namespace nc
