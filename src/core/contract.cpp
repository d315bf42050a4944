#include "core/contract.hpp"

namespace catalyst::contract::detail {

std::string format_violation(const char* kind, const char* expr,
                             const char* file, int line,
                             const std::string& msg) {
  std::string out;
  out.reserve(msg.size() + 128);
  out += "catalyst contract: ";
  out += kind;
  out += " violated at ";
  out += file;
  out += ':';
  out += std::to_string(line);
  out += ": `";
  out += expr;
  out += "` -- ";
  out += msg;
  return out;
}

}  // namespace catalyst::contract::detail
