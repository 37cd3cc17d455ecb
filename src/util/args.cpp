#include "util/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "util/require.hpp"

namespace sparsetrain {

Args::Args(int argc, const char* const argv[], std::vector<Flag> spec)
    : spec_(std::move(spec)) {
  if (argc > 0) prog_ = argv[0];
  const auto fail = [this](const std::string& what) {
    ST_REQUIRE(false, what + "\n" + usage(prog_));
  };
  const auto find_flag = [this](const std::string& name) -> const Flag* {
    for (const Flag& f : spec_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      fail("unexpected positional argument '" + arg + "'");
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    if (name == "help") {
      help_requested_ = true;
      continue;
    }
    const Flag* flag = find_flag(name);
    if (flag == nullptr) fail("unknown flag '--" + name + "'");
    if (flag->takes_value) {
      if (!has_value) {
        // A following "--token" is a flag, not a value — swallowing it
        // would silently drop that flag. Values that genuinely start
        // with "--" must use the --key=value form.
        if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
          fail("flag '--" + name + "' needs a value");
        }
        value = argv[++i];
      }
      values_[name] = value;
    } else {
      if (has_value) fail("flag '--" + name + "' does not take a value");
      values_[name] = "";
    }
  }
}

std::string Args::usage(const std::string& prog) const {
  std::ostringstream os;
  os << "usage: " << prog;
  for (const Flag& f : spec_) {
    os << " [--" << f.name << (f.takes_value ? " <value>" : "") << ']';
  }
  os << "\n";
  std::size_t width = 4;  // "help"
  for (const Flag& f : spec_) width = std::max(width, f.name.size());
  for (const Flag& f : spec_) {
    os << "  --" << f.name << std::string(width - f.name.size() + 2, ' ')
       << f.help << "\n";
  }
  os << "  --help" << std::string(width - 4 + 2, ' ')
     << "print this message and exit\n";
  return os.str();
}

bool Args::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Args::get(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  ST_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
             "malformed numeric flag --" + key + "=" + it->second);
  return v;
}

long Args::get(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  ST_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
             "malformed integer flag --" + key + "=" + it->second);
  return v;
}

}  // namespace sparsetrain
