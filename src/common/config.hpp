#pragma once

/// \file config.hpp
/// Minimal key=value configuration, in the spirit of HARVEY's text input
/// decks (the paper's artifact description: "Input parameters, including
/// fluid velocity, hematocrit, viscosity ratio ... are all specified in
/// the text"). Supports `#` comments, typed getters with defaults, and
/// `key=value` command-line overrides so examples and benches can be
/// re-parameterized without recompiling.

#include <map>
#include <set>
#include <string>
#include <vector>

namespace apr {

class Config {
 public:
  Config() = default;

  /// Parse a file of `key = value` lines; '#' starts a comment. Throws
  /// std::runtime_error on unreadable files or malformed lines.
  static Config from_file(const std::string& path);

  /// Parse argv-style overrides ("key=value"); non-matching arguments are
  /// ignored so flags can coexist.
  static Config from_args(int argc, const char* const* argv);

  /// Merge: values in `other` win.
  void merge(const Config& other);

  bool has(const std::string& key) const;

  /// Typed getters; return `fallback` when absent, throw
  /// std::runtime_error when present but unparsable. A present key is
  /// recorded as read (see unread_keys()).
  double get_double(const std::string& key, double fallback) const;
  int get_int(const std::string& key, int fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;

  void set(const std::string& key, const std::string& value);

  std::size_t size() const { return values_.size(); }

  /// Sorted view of every key/value pair (the map's natural order), for
  /// run-manifest config echoes.
  const std::map<std::string, std::string>& items() const { return values_; }

  /// Keys present in the deck that no typed getter has read yet, sorted.
  /// A consumer that has read every key it knows calls this to reject
  /// misspelled or retired keys instead of silently ignoring them.
  std::vector<std::string> unread_keys() const;

 private:
  std::map<std::string, std::string> values_;
  /// Keys a getter has returned; bookkeeping only, so the const getters
  /// may update it.
  mutable std::set<std::string> read_;

  /// The value of `key` (recorded as read), or nullptr when absent.
  const std::string* lookup(const std::string& key) const;
};

}  // namespace apr
