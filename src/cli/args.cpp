#include "cli/args.hpp"

#include <stdexcept>

namespace deepcat::cli {

std::optional<std::string> ParsedArgs::flag(const std::string& name) const {
  const auto it = flags.find(name);
  if (it == flags.end()) return std::nullopt;
  return it->second;
}

std::string ParsedArgs::flag_or(const std::string& name,
                                const std::string& fallback) const {
  return flag(name).value_or(fallback);
}

double ParsedArgs::number_or(const std::string& name, double fallback) const {
  const auto value = flag(name);
  if (!value) return fallback;
  try {
    return std::stod(*value);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name +
                                " expects a number, got '" + *value + "'");
  }
}

ParsedArgs parse_args(const std::vector<std::string>& argv) {
  ParsedArgs out;
  std::size_t i = 0;
  if (i < argv.size() && argv[i].rfind("--", 0) != 0) {
    out.command = argv[i++];
    if (i < argv.size() && argv[i].rfind("--", 0) != 0) {
      out.subcommand = argv[i++];
    }
  }
  while (i < argv.size()) {
    const std::string& token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument '" + token +
                                  "'");
    }
    const std::string name = token.substr(2);
    if (i + 1 >= argv.size()) {
      throw std::invalid_argument("flag --" + name + " is missing a value");
    }
    const std::string& value = argv[++i];
    ++i;
    if (name == "set") {
      const auto eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("--set expects knob=value, got '" +
                                    value + "'");
      }
      out.assignments.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else if (!out.flags.emplace(name, value).second) {
      // A repeated flag would otherwise keep only its last value.
      throw std::invalid_argument("flag --" + name + " given more than once");
    }
  }
  return out;
}

}  // namespace deepcat::cli
