// Registered threads that hold their registry tids and do nothing else, so
// a test can push the next thread's tid past a per-tid table's first 16
// tids (common/tid_table.hpp) or past the registry's high water without
// touching any queue. They block on a future, not in a yield loop, so
// hundreds of them cost no CPU time while they hold their tids.
#pragma once

#include <future>
#include <thread>
#include <vector>

#include "runtime/thread_registry.hpp"

namespace wcq::testing {

class ParkedThreads {
 public:
  // Starts all `n` threads, then returns once each holds a registry tid.
  // Waiting only after the last start lets the threads register in
  // parallel, so a host whose CPUs are all busy pays one scheduling delay,
  // not `n` of them.
  explicit ParkedThreads(unsigned n) {
    std::shared_future<void> release = release_.get_future().share();
    std::vector<std::future<void>> registered;
    registered.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      std::promise<void> p;
      registered.push_back(p.get_future());
      threads_.emplace_back([release, p = std::move(p)]() mutable {
        (void)ThreadRegistry::tid();
        p.set_value();
        release.wait();
      });
    }
    for (auto& r : registered) r.wait();
  }

  ~ParkedThreads() {
    release_.set_value();
    for (auto& t : threads_) t.join();
  }

  ParkedThreads(const ParkedThreads&) = delete;
  ParkedThreads& operator=(const ParkedThreads&) = delete;

 private:
  std::promise<void> release_;
  std::vector<std::thread> threads_;
};

}  // namespace wcq::testing
