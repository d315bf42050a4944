// Fixture: JSON documents spliced together (or scanned) by hand.
#include <cstdio>
#include <string>

std::string selftest_emit(const std::string& name, int count) {
  std::string out = "{\"name\": \"" + name + "\", ";  // expect: handwritten-json
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"count\":%d}", count);  // expect: handwritten-json
  out += buf;
  return out;
}

bool selftest_scan(const std::string& text) {
  return text.find("\"compiled_out\": true") != std::string::npos;  // expect: handwritten-json
}

std::string selftest_clean(const std::string& name) {
  // A comment quoting {\"name\": 1} must not fire, nor may a plain quote.
  const std::string quoted = "\"" + name + "\"";                // clean
  const std::string colon = "key: value";                      // clean
  return quoted + colon + "\"licensed\": 1";  // catalyst-lint: allow(handwritten-json)
}
