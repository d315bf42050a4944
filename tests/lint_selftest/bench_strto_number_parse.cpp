// Fixture: tool and bench programs parse numbers through the one flag
// grammar (flags::parse), not the C strto* family (linted as a bench/ file).
#include <cstdint>
#include <cstdlib>

double selftest_rate(const char* text) {
  char* end = nullptr;
  return std::strtod(text, &end);  // expect: unchecked-number-parse
}

long selftest_clients(const char* text) {
  return strtol(text, nullptr, 10);  // expect: unchecked-number-parse
}

unsigned long long selftest_seed(const char* text) {
  return std::strtoull(text, nullptr, 0);  // expect: unchecked-number-parse
}

std::uint64_t selftest_clean(const char* text) {
  // A comment naming std::strtod(text) must not fire, nor a string.
  const char* label = "strtoul(x) is refused";  // clean
  return catalyst::flags::integer_value(label, text, 1, 100);  // clean
}
