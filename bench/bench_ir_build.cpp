/// Cost of building the tensor IR: heap allocations (operator new calls) and
/// wall time of one `make_network(name, batch)` and of one copy of the
/// finished network, for every shipped network at batch 1 and 16, plus the
/// Table 6 operator suites.  Every tuning session, daemon job and resolver
/// miss starts with such a build, so this is the set-up cost the IR layout
/// decides.
///
/// Allocations are counted by replacing the global operator new in this
/// binary only; the library itself is not instrumented.  Times are the
/// median of 200 repetitions in one process (steady_clock).
///
///   ./build/bench_ir_build

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "workloads/networks.hpp"
#include "workloads/suites.hpp"

namespace {

std::atomic<long long> g_news{0};

}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

struct Cost {
  long long news = 0;  ///< operator new calls in one call of `fn`
  double us = 0;       ///< median wall time of one call
};

template <typename Fn>
Cost measure(Fn fn) {
  constexpr int kReps = 200;
  Cost c;
  long long before = g_news.load();
  fn();
  c.news = g_news.load() - before;
  std::vector<double> us;
  us.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  std::nth_element(us.begin(), us.begin() + kReps / 2, us.end());
  c.us = us[kReps / 2];
  return c;
}

void row(const std::string& what, const Cost& build, const Cost& copy) {
  std::printf("%-18s %12lld %10.1f %12lld %10.1f\n", what.c_str(), build.news, build.us,
              copy.news, copy.us);
}

}  // namespace

int main() {
  std::printf("%-18s %12s %10s %12s %10s\n", "graph", "build_news", "build_us", "copy_news",
              "copy_us");
  for (std::int64_t batch : {1, 16}) {
    for (const std::string& name : harl::network_names()) {
      const harl::Network net = harl::make_network(name, batch);
      Cost build = measure([&] {
        harl::Network n = harl::make_network(name, batch);
        if (n.subgraphs.empty()) std::abort();
      });
      Cost copy = measure([&] {
        harl::Network n = net;
        if (n.subgraphs.empty()) std::abort();
      });
      row(net.name, build, copy);
    }
    const std::vector<harl::OperatorCase> all = harl::table6_all(batch);
    Cost build = measure([&] {
      std::vector<harl::OperatorCase> cases = harl::table6_all(batch);
      if (cases.empty()) std::abort();
    });
    Cost copy = measure([&] {
      std::vector<harl::OperatorCase> cases = all;
      if (cases.empty()) std::abort();
    });
    row("table6_b" + std::to_string(batch), build, copy);
  }
  return 0;
}
