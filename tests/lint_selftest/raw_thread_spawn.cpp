// Fixture: std::thread constructed, or the hardware thread count read,
// outside core/parallel.hpp.
#include <thread>

void selftest_spawn() {
  std::thread t([] {});  // expect: raw-thread-spawn
  t.join();
}

unsigned selftest_workers() {
  using std::thread;                      // expect: raw-thread-spawn
  return thread::hardware_concurrency();  // expect: raw-thread-spawn
}
