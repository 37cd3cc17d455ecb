// Minimal command-line flag parsing for the bench/example binaries
// (--key=value and --key value forms, plus --help listing).
//
// Drivers declare their flags up front; anything unrecognised is a hard
// error whose message includes the usage dump, so a typoed sweep flag
// (`--worker 4`) dies loudly instead of silently benchmarking the
// defaults. The spec also records which flags take a value, so boolean
// flags never swallow the token after them.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace sparsetrain {

class Args {
 public:
  /// One declared flag. Boolean flags (takes_value = false) never
  /// consume the following token.
  struct Flag {
    std::string name;
    std::string help;
    bool takes_value = true;
  };

  /// Every --flag must appear in `spec` (--help is always accepted, see
  /// help_requested()). Unrecognised flags, positional arguments, and
  /// value-less occurrences of value flags throw ContractError with the
  /// usage dump in the message.
  Args(int argc, const char* const argv[], std::vector<Flag> spec);

  bool has(const std::string& key) const;

  /// String value or default.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Numeric value or default; throws ContractError on a malformed number.
  double get(const std::string& key, double fallback) const;
  long get(const std::string& key, long fallback) const;

  /// True when --help was passed; the driver should print usage() and
  /// exit 0.
  bool help_requested() const { return help_requested_; }

  /// Usage dump built from the spec.
  std::string usage(const std::string& prog) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<Flag> spec_;
  std::string prog_ = "prog";
  bool help_requested_ = false;
};

}  // namespace sparsetrain
