// Minimal CSV writer so experiments can dump machine-readable series
// alongside the human-readable tables.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

namespace sparsetrain {

/// Streams rows into a CSV file (or any ostream). Values containing
/// commas, quotes, CR or LF are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens (truncates) the file and writes the header row.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  /// Writes into a caller-owned stream (which must outlive the writer) —
  /// used by the result exporters and their tests.
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  // out_ may point at our own file_, so moving/copying would leave it
  // dangling or aliased.
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Appends one row; must match the header arity.
  void add_row(const std::vector<std::string>& row);

  /// True when the underlying stream is healthy.
  bool ok() const { return static_cast<bool>(*out_); }

 private:
  void write_row(const std::vector<std::string>& row);

  std::ofstream file_;
  std::ostream* out_;
  std::size_t arity_;
};

}  // namespace sparsetrain
