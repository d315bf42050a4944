// catalyst/flags -- the one command-line grammar of the catalyst tools.
//
// Each tool declares a table of Flag rows: a flag's name, its kind and the
// subcommands that read it.  parse() checks the whole command line against
// the table before any command runs and refuses, with an Error naming the
// flag, an unknown flag, a missing value, a malformed number and a number
// out of range.  After that the typed getters of Args cannot fail.
//
// The grammar:
//   * `--name value` and `--name=value` set a value flag; the value is the
//     next token unless that token starts with `--`, so `--tau -1` reads -1
//     (and the flag's range refuses it);
//   * a switch never takes the next token (`analyze --rounded branch`);
//   * a number is one whole std::from_chars token: no blank, no '+', no
//     hex, no trailing junk; integer flags refuse fractions.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace catalyst::flags {

/// A command line a tool refuses before it runs; the message names the
/// flag or argument.  Each tool maps it to its usage exit code.
class Error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

enum class Kind {
  toggle,    ///< --name: never takes a value
  text,      ///< --name VALUE, VALUE not empty
  optional,  ///< --name [VALUE]
  real,      ///< a finite number
  positive,  ///< a finite number > 0
  integer,   ///< an integer in [lo, hi]
};

/// One row of a tool's flag table.
struct Flag {
  std::string_view name;
  Kind kind;
  std::string_view meta;  ///< the value's name in usage(): "FILE", "N"
  /// Space-separated subcommands that read the flag; "" for every one (and
  /// for a tool without subcommands).
  std::string_view commands;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// A parsed, fully checked command line.
class Args {
 public:
  std::vector<std::string> positional;

  bool has(std::string_view name) const;
  std::string text(std::string_view name, std::string fallback) const;
  double real(std::string_view name, double fallback) const;
  std::uint64_t integer(std::string_view name, std::uint64_t fallback) const;

 private:
  friend Args parse(std::span<const Flag>, std::string_view, int, char**);
  struct Value {
    std::string text;
    double real = 0.0;
    std::uint64_t integer = 0;
  };
  std::map<std::string, Value, std::less<>> values_;
};

/// Parses argv[1..argc) against `table`.  `commands` lists the tool's
/// subcommands (space-separated; "" when it has none); the first positional
/// names the subcommand, and a flag it does not read is refused with
/// "--X: not a flag of 'CMD'".  A tool without subcommands takes no
/// positional argument and refuses an unknown flag with "--X: unknown
/// flag".  When the first positional is not a subcommand only the words
/// are returned, for the caller's usage().  Throws Error.
Args parse(std::span<const Flag> table, std::string_view commands, int argc,
           char** argv);

/// The whole of `text` as an integer in [lo, hi]; throws Error naming
/// `what` otherwise.  For positional numbers (request ids, counts).
std::uint64_t integer_value(std::string_view what, std::string_view text,
                            std::uint64_t lo, std::uint64_t hi);

/// One line per row: the flag and its value, the value's rule, and the
/// subcommands that read it.
void print_flags(std::ostream& out, std::span<const Flag> table);

}  // namespace catalyst::flags
