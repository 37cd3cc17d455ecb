#include "util/csv.hpp"

#include "util/require.hpp"

namespace sparsetrain {

namespace {
std::string escape(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : file_(path), out_(&file_), arity_(header.size()) {
  ST_REQUIRE(arity_ > 0, "csv header must be non-empty");
  write_row(header);
}

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(&out), arity_(header.size()) {
  ST_REQUIRE(arity_ > 0, "csv header must be non-empty");
  write_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& row) {
  ST_REQUIRE(row.size() == arity_, "csv row arity mismatch");
  write_row(row);
}

void CsvWriter::write_row(const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    *out_ << escape(row[i]);
    if (i + 1 < row.size()) *out_ << ',';
  }
  *out_ << '\n';
}

}  // namespace sparsetrain
