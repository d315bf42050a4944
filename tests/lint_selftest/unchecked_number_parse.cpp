// Fixture: numbers parsed with the throwing or silent C/C++ helpers.
#include <charconv>
#include <cstdlib>
#include <string>

int selftest_workers(const std::string& text) {
  return std::stoi(text);  // expect: unchecked-number-parse
}

unsigned long long selftest_seed(const std::string& text) {
  return std::stoull(text);  // expect: unchecked-number-parse
}

double selftest_rate(const char* text) {
  return std::atof(text) + atoi(text);  // expect: unchecked-number-parse
}

int selftest_clean(const std::string& text) {
  // A comment naming std::stoi(text) must not fire, nor may a member call.
  int value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);  // clean
  const std::string label = "std::stod(x) is refused";            // clean
  // strto* is refused only in tools/ and bench/.
  value += static_cast<int>(std::strtod(text.c_str(), nullptr));  // clean
  // catalyst-lint: allow(unchecked-number-parse)
  return value + std::stoi("7");
}
