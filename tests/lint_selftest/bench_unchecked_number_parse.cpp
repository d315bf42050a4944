// Fixture: bench/ programs parse their flags with flags::parse, not the
// throwing or silent C/C++ helpers (linted as a bench/ file).
#include <cstdlib>
#include <string>

int selftest_seeds(const char* text) {
  return std::atoi(text);  // expect: unchecked-number-parse
}

int selftest_clients(const std::string& text) {
  return std::stoi(text);  // expect: unchecked-number-parse
}

int selftest_clean(const char* text) {
  return static_cast<int>(
      catalyst::flags::integer_value("--seeds", text, 1, 100));  // clean
}
