#pragma once
// Key-value configuration store — the C++ analogue of the prototype's
// conf.py. Every daemon (Interface Daemon, DRL Engine, Monitoring/Control
// Agents) reads its settings from one Config; keys use dotted names, and
// core/options.cpp declares every key CAPES reads.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace capes::util {

/// Typed configuration map with file parsing (`key = value`, `#` comments).
class Config {
 public:
  Config() = default;

  /// Parse `key = value` lines. Blank lines and lines starting with '#'
  /// (after whitespace) are ignored. Later keys override earlier ones.
  /// Returns false (and leaves *this partially updated) on a malformed line.
  bool parse_string(const std::string& text);

  /// Parse a config file from disk. Returns false if the file cannot be
  /// read or contains a malformed line.
  bool parse_file(const std::string& path);

  void set(const std::string& key, const std::string& value);
  void set_int(const std::string& key, std::int64_t value);
  void set_double(const std::string& key, double value);
  void set_bool(const std::string& key, bool value);

  bool has(const std::string& key) const;

  /// Typed getters returning `fallback` when the key is absent.
  /// A present-but-unparsable value also returns the fallback.
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Strict getter: nullopt when absent.
  std::optional<std::string> get(const std::string& key) const;

  /// Keys in sorted order (for dumping / diffing configs).
  std::vector<std::string> keys() const;

  /// Serialize back to `key = value` lines, sorted by key.
  std::string dump() const;

  /// Merge another config over this one (other wins on conflicts).
  void merge(const Config& other);

  std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace capes::util
