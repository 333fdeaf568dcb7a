// Channel/park schedule-exploration driver (DESIGN.md §14).
//
// The explore.hpp script driver models one-shot enq/deq ops; blocking
// channel operations do not fit that shape (a blocked send/recv spans many
// scheduling points and its completion depends on a peer's progress), so the
// park/wake suites use these purpose-built runners instead. Each runs one
// producer/consumer (or MPMC) workload over Channel<T> under the PCT
// scheduler and reports exactly what the lost-wakeup assertions need:
//
//   * received/checksum — delivery completeness (nothing lost, nothing
//     invented) across the schedule;
//   * stranded — EventCount's budget-exhausted virtual parks. A park whose
//     wake exists is always released well inside the budget (the quota
//     demotes the spinning parker below every runnable peer, so the waking
//     peer gets the processor thousands of times before the budget ends);
//     a park whose wake was LOST spins the budget down alone. Correct
//     protocol => stranded == 0 on every seed; the dropped-wake and
//     skipped-re-check mutation binaries must drive it > 0 at some seed.
//   * watchdog — the scheduler never wedged (blocking ops keep passing
//     scheduling points: ring ops inside the retry loops, kParkCommit
//     inside virtual parks).
//
// The no-close shape (close_at_end = false) is the mutation-sensitive one:
// the receiver expects exactly `count` elements and the sender never calls
// close(), so the close()-time notify_all cannot paper over a wake that the
// per-send notify lost.
#pragma once

#include <cstdint>
#include <thread>
#include <vector>

#include "pct_scheduler.hpp"
#include "runtime/channel.hpp"

namespace wcq::analysis_test {

struct ChanRunResult {
  bool watchdog = false;
  std::uint64_t received = 0;
  std::uint64_t checksum = 0;   // sum of received values
  std::uint64_t stranded = 0;   // lost-wakeup detector (see file comment)
  std::uint64_t recv_parks = 0;
  std::uint64_t send_parks = 0;
};

// w0 sends 0..count-1 (blocking), then optionally closes; w1 receives —
// exactly `count` recvs without close, drain-until-kClosed with it. A small
// ring (default capacity 2) forces parks in both directions.
inline ChanRunResult run_prodcon_channel(std::uint64_t seed, unsigned count,
                                         bool close_at_end,
                                         unsigned order = 1) {
  Channel<std::uint64_t> ch(order);
  PctScheduler::Config cfg;
  cfg.seed = seed;
  cfg.workers = 2;
  cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
  ChanRunResult res;
  {
    PctScheduler sched(cfg);
    std::thread sender([&] {
      sched.attach(0);
      {
        auto h = ch.acquire();
        for (unsigned i = 0; i < count; ++i) ch.send(h, i);
        if (close_at_end) ch.close();
      }
      sched.finish();
    });
    std::thread receiver([&] {
      sched.attach(1);
      {
        auto h = ch.acquire();
        std::uint64_t out = 0;
        if (close_at_end) {
          while (ch.recv(h, out) == ChanStatus::kOk) {
            ++res.received;
            res.checksum += out;
          }
        } else {
          for (unsigned i = 0; i < count; ++i) {
            if (ch.recv(h, out) == ChanStatus::kOk) {
              ++res.received;
              res.checksum += out;
            }
          }
        }
      }
      sched.finish();
    });
    sender.join();
    receiver.join();
    res.watchdog = sched.watchdog_fired();
  }
  const auto st = ch.stats();
  res.stranded = st.stranded;
  res.recv_parks = st.recv_parks;
  res.send_parks = st.send_parks;
  return res;
}

// The baton shape: w0 sends 0..count-1 (blocking, no close); w1 receives
// exactly one element and leaves; w2 receives the other count-1. A claim
// that lands on w1 as its spinner re-check succeeds is a wake w1 never
// acts on, so w2 strands unless w1 passes the wake on (the baton rule).
// The change points fall in the first 16 steps, where w1's first
// registration races the first sends. With `stall_spinner`, w1 is suspended
// at its first kSpinDeregister point (the baton window: its re-check has
// succeeded) for 2000 peer steps: long enough for w2 to park and w0 to
// claim the suspended spinner, short of the 4096-step virtual park, so a
// passed-on wake still reaches w2 in time.
inline ChanRunResult run_baton_channel(std::uint64_t seed, unsigned count,
                                       bool stall_spinner) {
  Channel<std::uint64_t> ch(1u);
  PctScheduler::Config cfg;
  cfg.seed = seed;
  cfg.workers = 3;
  cfg.horizon = 16;
  cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
  if (stall_spinner) {
    cfg.stall_victim = 1;
    cfg.stall_site = analysis::Site::kSpinDeregister;
    cfg.stall_duration = 2000;
  }
  ChanRunResult res;
  {
    PctScheduler sched(cfg);
    std::uint64_t got[2] = {0, 0};
    std::uint64_t sum[2] = {0, 0};
    std::thread sender([&] {
      sched.attach(0);
      {
        auto h = ch.acquire();
        for (unsigned i = 0; i < count; ++i) ch.send(h, i);
      }
      sched.finish();
    });
    std::vector<std::thread> receivers;
    for (unsigned r = 0; r < 2; ++r) {
      receivers.emplace_back([&, r] {
        sched.attach(1 + r);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          const unsigned want = r == 0 ? 1 : count - 1;
          for (unsigned i = 0; i < want; ++i) {
            if (ch.recv(h, out) == ChanStatus::kOk) {
              ++got[r];
              sum[r] += out;
            }
          }
        }
        sched.finish();
      });
    }
    sender.join();
    for (auto& t : receivers) t.join();
    res.received = got[0] + got[1];
    res.checksum = sum[0] + sum[1];
    res.watchdog = sched.watchdog_fired();
  }
  const auto st = ch.stats();
  res.stranded = st.stranded;
  res.recv_parks = st.recv_parks;
  res.send_parks = st.send_parks;
  return res;
}

// senders x receivers MPMC: each sender sends `per_sender` distinct values,
// the last one to finish closes; receivers drain until kClosed.
inline ChanRunResult run_mpmc_channel(std::uint64_t seed, unsigned senders,
                                      unsigned receivers, unsigned per_sender,
                                      unsigned order = 1) {
  Channel<std::uint64_t> ch(order);
  PctScheduler::Config cfg;
  cfg.seed = seed;
  cfg.workers = senders + receivers;
  cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
  ChanRunResult res;
  {
    PctScheduler sched(cfg);
    std::atomic<unsigned> senders_left{senders};
    std::vector<std::uint64_t> got(receivers, 0);
    std::vector<std::uint64_t> sum(receivers, 0);
    std::vector<std::thread> threads;
    for (unsigned s = 0; s < senders; ++s) {
      threads.emplace_back([&, s] {
        sched.attach(s);
        {
          auto h = ch.acquire();
          for (unsigned i = 0; i < per_sender; ++i) {
            ch.send(h, std::uint64_t{s} * per_sender + i);
          }
          if (senders_left.fetch_sub(1) == 1) ch.close();
        }
        sched.finish();
      });
    }
    for (unsigned r = 0; r < receivers; ++r) {
      threads.emplace_back([&, r] {
        sched.attach(senders + r);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          while (ch.recv(h, out) == ChanStatus::kOk) {
            ++got[r];
            sum[r] += out;
          }
        }
        sched.finish();
      });
    }
    for (auto& t : threads) t.join();
    for (unsigned r = 0; r < receivers; ++r) {
      res.received += got[r];
      res.checksum += sum[r];
    }
    res.watchdog = sched.watchdog_fired();
  }
  const auto st = ch.stats();
  res.stranded = st.stranded;
  res.recv_parks = st.recv_parks;
  res.send_parks = st.send_parks;
  return res;
}

}  // namespace wcq::analysis_test
