#include "flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <system_error>

namespace catalyst::flags {
namespace {

/// True when `word` is one of the space-separated words of `list`.
bool lists(std::string_view list, std::string_view word) {
  for (;;) {
    const auto space = list.find(' ');
    if (list.substr(0, space) == word) return true;
    if (space == std::string_view::npos) return false;
    list.remove_prefix(space + 1);
  }
}

/// The row of `name` that `command` reads; any row of that name when
/// `command` is nullopt.  nullptr when there is none.
const Flag* find(std::span<const Flag> table, std::string_view name,
                 std::optional<std::string_view> command) {
  for (const Flag& flag : table) {
    if (flag.name == name &&
        (!command || flag.commands.empty() || lists(flag.commands, *command))) {
      return &flag;
    }
  }
  return nullptr;
}

/// True when the whole of `text` is one T.
template <typename T>
bool whole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return !text.empty() && ec == std::errc() && ptr == end;
}

double real_value(const std::string& flag, const std::string& text,
                  Kind kind) {
  double value = 0.0;
  if (!whole(text, value) || !std::isfinite(value)) {
    throw Error(flag + ": expected a number, got '" + text + "'");
  }
  if (kind == Kind::positive && !(value > 0.0)) {
    throw Error(flag + ": must be a positive number, got '" + text + "'");
  }
  return value;
}

bool is_flag(std::string_view token) { return token.substr(0, 2) == "--"; }

}  // namespace

bool Args::has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::string Args::text(std::string_view name, std::string fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second.text;
}

double Args::real(std::string_view name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second.real;
}

std::uint64_t Args::integer(std::string_view name,
                            std::uint64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second.integer;
}

std::uint64_t integer_value(std::string_view what, std::string_view text,
                            std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  if (!whole(text, value) || value < lo || value > hi) {
    throw Error(std::string(what) + ": must be an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
                std::string(text) + "'");
  }
  return value;
}

Args parse(std::span<const Flag> table, std::string_view commands, int argc,
           char** argv) {
  Args args;
  // Split the words from the flags first: whether a flag takes the next
  // token depends on its kind, read from the row of the subcommand named so
  // far (any row of that name before the subcommand).
  std::vector<std::pair<std::string, std::optional<std::string>>> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (!is_flag(token)) {
      args.positional.emplace_back(token);
      continue;
    }
    const auto eq = token.find('=');
    std::string name(token.substr(2, eq == token.npos ? eq : eq - 2));
    std::optional<std::string> value;
    if (eq != token.npos) {
      value = std::string(token.substr(eq + 1));
    } else {
      const Flag* row =
          args.positional.empty()
              ? nullptr
              : find(table, name, std::string_view(args.positional.front()));
      if (row == nullptr) row = find(table, name, std::nullopt);
      if (row != nullptr && row->kind != Kind::toggle && i + 1 < argc &&
          !is_flag(argv[i + 1])) {
        value = argv[++i];
      }
    }
    seen.emplace_back(std::move(name), std::move(value));
  }

  std::string command;
  if (!commands.empty()) {
    if (args.positional.empty() || !lists(commands, args.positional.front())) {
      return args;  // not a subcommand: the caller prints its usage
    }
    command = args.positional.front();
  }
  for (auto& [name, value] : seen) {
    const std::string flag = "--" + name;
    const Flag* row = find(table, name, std::string_view(command));
    if (row == nullptr) {
      throw Error(flag + (commands.empty()
                              ? ": unknown flag"
                              : ": not a flag of '" + command + "'"));
    }
    Args::Value parsed;
    if (row->kind == Kind::toggle) {
      if (value) throw Error(flag + ": takes no value");
    } else if (row->kind == Kind::optional) {
      parsed.text = value.value_or("");
    } else if (!value || value->empty()) {
      throw Error(flag + ": missing value");
    } else {
      parsed.text = *value;
      if (row->kind == Kind::real || row->kind == Kind::positive) {
        parsed.real = real_value(flag, parsed.text, row->kind);
      } else if (row->kind == Kind::integer) {
        parsed.integer = integer_value(flag, parsed.text, row->lo, row->hi);
      }
    }
    args.values_[name] = std::move(parsed);
  }
  if (commands.empty() && !args.positional.empty()) {
    throw Error("unexpected argument '" + args.positional.front() + "'");
  }
  return args;
}

void print_flags(std::ostream& out, std::span<const Flag> table) {
  for (const Flag& flag : table) {
    std::string line = "  --" + std::string(flag.name);
    if (flag.kind == Kind::optional) {
      line += " [" + std::string(flag.meta) + "]";
    } else if (!flag.meta.empty()) {
      line += " " + std::string(flag.meta);
    }
    std::string rule;
    if (flag.kind == Kind::real) rule = "a number";
    if (flag.kind == Kind::positive) rule = "a number > 0";
    if (flag.kind == Kind::integer) {
      rule = "an integer in [" + std::to_string(flag.lo) + ", " +
             std::to_string(flag.hi) + "]";
    }
    std::string what(flag.commands);
    if (!what.empty() && !rule.empty()) what += ": ";
    what += rule;
    if (!what.empty()) {
      line.resize(std::max<std::size_t>(line.size() + 2, 32), ' ');
      line += what;
    }
    out << line << "\n";
  }
}

}  // namespace catalyst::flags
