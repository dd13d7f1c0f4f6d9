#include "src/common/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <stdexcept>

namespace apr {

namespace {

std::string trim(const std::string& s) {
  auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  auto b = std::find_if_not(s.begin(), s.end(), is_space);
  auto e = std::find_if_not(s.rbegin(), s.rend(), is_space).base();
  return b < e ? std::string(b, e) : std::string();
}

}  // namespace

Config Config::from_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("Config: cannot open " + path);
  Config cfg;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("Config: malformed line " +
                               std::to_string(lineno) + " in " + path);
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("Config: empty key at line " +
                               std::to_string(lineno) + " in " + path);
    }
    cfg.values_[key] = value;
  }
  return cfg;
}

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    cfg.values_[trim(arg.substr(0, eq))] = trim(arg.substr(eq + 1));
  }
  return cfg;
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

const std::string* Config::lookup(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  read_.insert(key);
  return &it->second;
}

double Config::get_double(const std::string& key, double fallback) const {
  const std::string* s = lookup(key);
  if (!s) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(*s, &pos);
    if (pos != s->size()) throw std::invalid_argument(key);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: '" + key + "' is not a number: " + *s);
  }
}

int Config::get_int(const std::string& key, int fallback) const {
  const std::string* s = lookup(key);
  if (!s) return fallback;
  try {
    std::size_t pos = 0;
    const int v = std::stoi(*s, &pos);
    if (pos != s->size()) throw std::invalid_argument(key);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: '" + key + "' is not an integer: " +
                             *s);
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const std::string* s = lookup(key);
  if (!s) return fallback;
  std::string v = *s;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::runtime_error("Config: '" + key + "' is not a boolean: " + *s);
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const std::string* s = lookup(key);
  return s ? *s : fallback;
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) unread.push_back(key);
  }
  return unread;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

}  // namespace apr
