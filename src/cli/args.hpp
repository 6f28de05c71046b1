// Tiny argument parser for the deepcat CLI: positional subcommand +
// --flag value pairs + repeatable --set knob=value assignments.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace deepcat::cli {

struct ParsedArgs {
  std::string command;                       ///< first positional token
  std::string subcommand;                    ///< optional second positional
  std::map<std::string, std::string> flags;  ///< --name value
  std::vector<std::pair<std::string, std::string>> assignments;  ///< --set k=v

  [[nodiscard]] std::optional<std::string> flag(
      const std::string& name) const;
  [[nodiscard]] std::string flag_or(const std::string& name,
                                    const std::string& fallback) const;
  [[nodiscard]] double number_or(const std::string& name,
                                 double fallback) const;
};

/// Parses argv[1..): the first token is the command, an optional second
/// bare token the subcommand ("index build"); "--set k=v" pairs are
/// collected into `assignments` (--set may repeat); any other
/// "--name value" into `flags`. Throws std::invalid_argument on a
/// malformed flag (missing value, missing '=' in --set), a flag other than
/// --set given twice, or a third positional token.
[[nodiscard]] ParsedArgs parse_args(const std::vector<std::string>& argv);

}  // namespace deepcat::cli
