// Traced runs: spans around every call the benchmark makes into a layer's
// public functions. Each thread owns a SpanLog. Every span's duration goes
// into a per-name histogram; the spans of every kKeepEvery-th operation are
// also kept whole (name, start, end, parent span, op id) in a bounded
// in-memory buffer, written out at exit, and used for self time: a span's
// duration minus the part its kept children cover.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util.hpp"

namespace pb {

// Every span name the benchmark records. A name is a layer's public call
// (or a benchmark loop step that parents such calls).
enum Name : u32 {
  kOp,                // one p5050 loop step (parent of the queue call)
  kBoundedEnq,        // BoundedQueue::enqueue(handle, v)
  kBoundedDeq,        // BoundedQueue::dequeue(handle)
  kPipelineBatch,     // one producer batch incl. retries and backoff
  kShardedEnqBulk,    // ShardedQueue::enqueue_bulk(handle, ...)
  kShardedDeqBulk,    // ShardedQueue::dequeue_bulk(consumer handle, ...)
  kShardedEnqItem,    // enqueue_bulk duration / items accepted
  kShardedDeqItem,    // dequeue_bulk duration / items returned
  kUnboundedEnq,      // UnboundedQueue::enqueue(handle, v)
  kUnboundedDeq,      // UnboundedQueue::dequeue(handle)
  kGenItem,           // generator: wait for the scheduled time, then send
  kChannelSend,       // Channel::send(handle, v)
  kChannelRecv,       // Channel::recv(handle, out), incl. any park
  kNameCount
};

inline const char* name_str(u32 n) {
  static const char* const kNames[kNameCount] = {
      "op",
      "bounded.enqueue",
      "bounded.dequeue",
      "pipeline.batch",
      "sharded.enqueue_bulk",
      "sharded.dequeue_bulk",
      "sharded.enqueue_bulk.per_item",
      "sharded.dequeue_bulk.per_item",
      "unbounded.enqueue",
      "unbounded.dequeue",
      "gen.item",
      "channel.send",
      "channel.recv",
  };
  return n < kNameCount ? kNames[n] : "?";
}

class SpanLog {
 public:
  static constexpr u32 kNone = ~u32{0};
  static constexpr u64 kKeepEvery = 64;
  static constexpr std::size_t kCap = 8192;

  struct Rec {
    u32 name;
    u32 parent;
    u64 op;
    u64 t0, t1;
  };

  SpanLog() : hist_(kNameCount) { buf_.reserve(kCap); }

  static bool keep(u64 op) { return op % kKeepEvery == 0; }

  // Opens a kept span (returns its id) or, when `kept` is false or the
  // buffer is full, returns kNone; the duration is recorded by end().
  u32 begin(u32 name, u32 parent, u64 op, u64 t0, bool kept) {
    if (!kept || buf_.size() >= kCap) return kNone;
    buf_.push_back(Rec{name, parent, op, t0, t0});
    return static_cast<u32>(buf_.size() - 1);
  }
  void end(u32 id, u32 name, u64 t0, u64 t1) {
    hist_[name].add(t1 - t0);
    if (id != kNone) buf_[id].t1 = t1;
  }
  // A value in ticks with no span of its own (per-item shares).
  void value(u32 name, u64 v) { hist_[name].add(v); }

  const Hist& hist(u32 name) const { return hist_[name]; }
  const std::vector<Rec>& spans() const { return buf_; }

 private:
  std::vector<Hist> hist_;
  std::vector<Rec> buf_;
};

// Tick calibration for one traced pass: ticks and ns read together at both
// ends of the pass.
struct TickClock {
  u64 ns0 = now_ns(), tk0 = ticks();
  double ns_per_tick() const {
    const u64 ns1 = now_ns(), tk1 = ticks();
    return tk1 > tk0 ? static_cast<double>(ns1 - ns0) /
                           static_cast<double>(tk1 - tk0)
                     : 1.0;
  }
};

// Merged view of a traced pass: per-name histograms (ticks), self time per
// name from the kept spans, and the span file.
class TraceSummary {
 public:
  TraceSummary(const std::vector<const SpanLog*>& logs, double ns_per_tick)
      : k_(ns_per_tick), hist_(kNameCount) {
    for (const SpanLog* l : logs) {
      for (u32 n = 0; n < kNameCount; ++n) hist_[n].merge(l->hist(n));
      const auto& s = l->spans();
      std::vector<u64> child(s.size(), 0);
      for (const auto& r : s) {
        if (r.parent != SpanLog::kNone && r.parent < s.size()) {
          child[r.parent] += r.t1 - r.t0;
        }
      }
      for (std::size_t i = 0; i < s.size(); ++i) {
        const u64 dur = s[i].t1 - s[i].t0;
        total_[s[i].name] += static_cast<double>(dur);
        self_[s[i].name] +=
            static_cast<double>(dur - std::min(dur, child[i]));
      }
    }
  }

  double ns(u32 name, double q) const { return hist_[name].quantile(q) * k_; }
  u64 count(u32 name) const { return hist_[name].count(); }
  // Share of the kept spans' time that no kept child span covers.
  double self_frac(u32 name) const {
    const auto it = total_.find(name);
    return it == total_.end() || it->second == 0
               ? 0.0
               : self_.at(name) / it->second;
  }

  // One line per span name: count, p50, p99 and self-time share.
  std::string text(const char* pass) const {
    std::string out;
    for (u32 n = 0; n < kNameCount; ++n) {
      if (hist_[n].count() == 0) continue;
      char line[192];
      std::snprintf(line, sizeof line,
                    "  span %-30s pass=%s n=%llu p50=%.1fns p99=%.1fns "
                    "self=%.3f\n",
                    name_str(n), pass,
                    static_cast<unsigned long long>(hist_[n].count()),
                    ns(n, 0.50), ns(n, 0.99), self_frac(n));
      out += line;
    }
    return out;
  }

  // One CSV row per kept span: thread, span id, parent id, op id, name,
  // start and end in ns from the pass start.
  static void write(const std::string& path,
                    const std::vector<const SpanLog*>& logs, u64 tk0,
                    double ns_per_tick) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "thread,span,parent,op,name,start_ns,end_ns\n");
    for (std::size_t t = 0; t < logs.size(); ++t) {
      const auto& s = logs[t]->spans();
      for (std::size_t i = 0; i < s.size(); ++i) {
        const auto& r = s[i];
        std::fprintf(
            f, "%zu,%zu,%lld,%llu,%s,%.1f,%.1f\n", t, i,
            r.parent == SpanLog::kNone ? -1LL : static_cast<long long>(r.parent),
            static_cast<unsigned long long>(r.op), name_str(r.name),
            static_cast<double>(r.t0 - tk0) * ns_per_tick,
            static_cast<double>(r.t1 - tk0) * ns_per_tick);
      }
    }
    std::fclose(f);
  }

 private:
  double k_;
  std::vector<Hist> hist_;
  std::map<u32, double> total_, self_;
};

}  // namespace pb
