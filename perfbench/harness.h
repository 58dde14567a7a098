// Measurement plumbing of the DCert benchmark: the percentile rule, the span
// recorder with its self-time computation, the open-loop request generator,
// and the seeded Zipf sampler. Everything here is independent of DCert's own
// modules so the self-tests can exercise it in isolation.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace dcert::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles. A tail percentile is reported only when at least kMinBeyond
// samples lie strictly above its rank, so a p99 always rests on ten or more
// observations of the tail it describes.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank index (0-based) of percentile `p` in a sorted sample of `n`.
inline std::size_t RankIndex(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  return rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
}

/// Samples strictly above the rank of `p` in a sample of `n`.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, p);
}

/// Smallest sample size whose percentile `p` has kMinBeyond samples beyond.
inline std::size_t MinSamplesFor(double p) {
  std::size_t n = 1;
  while (SamplesBeyond(n, p) < kMinBeyond) ++n;
  return n;
}

/// Nearest-rank percentile; nullopt when the sample is too small for the
/// ten-beyond rule.
inline std::optional<double> Percentile(std::vector<double> xs, double p) {
  if (SamplesBeyond(xs.size(), p) < kMinBeyond) return std::nullopt;
  const std::size_t idx = RankIndex(xs.size(), p);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(idx),
                   xs.end());
  return xs[idx];
}

/// Median of any non-empty sample (mean of the middle pair for even sizes);
/// 0 for an empty one.
inline double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

// ---------------------------------------------------------------------------
// Repetitions. A shared 4-core Xeon VM alternates, over seconds to minutes,
// between a fast and a ~1.5x slower speed for the same single-threaded work,
// and now and then stalls a thread for tens of ms (co-tenant load; a fixed
// signature-check loop measured 8.5 vs 12.5 ms per call). A statistic over
// one contiguous stretch of a run then lands on either speed from run to
// run. So the benchmark repeats the same items (fixture blocks, the phase-1
// query stream) at different times spread over the run, keeps each item's
// fastest repetition, and takes the end-to-end statistics over those.
// ---------------------------------------------------------------------------

/// Per-item minimum: xs[k] measures item idx[k]; returns the lowest value of
/// every item measured, in item order.
inline std::vector<double> MinPerItem(const std::vector<double>& xs,
                                      const std::vector<std::size_t>& idx) {
  std::map<std::size_t, double> best;
  for (std::size_t k = 0; k < xs.size() && k < idx.size(); ++k) {
    const auto [it, fresh] = best.emplace(idx[k], xs[k]);
    if (!fresh) it->second = std::min(it->second, xs[k]);
  }
  std::vector<double> out;
  for (const auto& [item, v] : best) out.push_back(v);
  return out;
}

// ---------------------------------------------------------------------------
// Spans. One trace is one block or one query; spans of a trace share its id
// and name their parent span. Spans live in memory (one log per thread) and
// are reduced after the run: a span's self time is its duration minus the
// part of its interval covered by its direct children.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;  // "<layer>.<stage>"
  std::uint64_t trace = 0;
  std::uint32_t id = 0;      // unique within the trace, 1-based
  std::uint32_t parent = 0;  // 0 = root
  Clock::time_point start;
  Clock::time_point end;
};

/// Single-threaded span log; merge per-thread logs with Append.
class SpanLog {
 public:
  /// Opens a span and returns its id; close it with End.
  std::uint32_t Begin(const std::string& name, std::uint64_t trace,
                      std::uint32_t parent) {
    Span s;
    s.name = name;
    s.trace = trace;
    s.id = ++next_id_[trace];
    s.parent = parent;
    s.start = Clock::now();
    s.end = s.start;
    open_.push_back(spans_.size());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void End() {
    spans_[open_.back()].end = Clock::now();
    open_.pop_back();
  }
  /// Records a span whose interval was measured elsewhere.
  void Add(Span s) {
    s.id = ++next_id_[s.trace];
    spans_.push_back(std::move(s));
  }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  const std::vector<Span>& Spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::uint64_t, std::uint32_t> next_id_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::uint64_t trace,
             std::uint32_t parent)
      : log_(log), id_(log.Begin(name, trace, parent)) {}
  ~ScopedSpan() { log_.End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// Per-trace self time (ms) of every span name, summed over the spans of
/// that name within the trace: result[name][k] belongs to the k-th trace
/// (ascending trace id) that has a span of that name.
inline std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> by_trace;
  for (const Span& s : spans) by_trace[s.trace].push_back(&s);
  std::map<std::string, std::vector<double>> out;
  for (const auto& [trace, members] : by_trace) {
    std::map<std::string, double> per_name;
    for (const Span* s : members) {
      // Union of the direct children's intervals, clipped to the parent.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
      for (const Span* c : members) {
        if (c->parent != s->id) continue;
        kids.emplace_back(std::max(c->start, s->start),
                          std::min(c->end, s->end));
      }
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      Clock::time_point reach = s->start;
      for (const auto& [a, b] : kids) {
        const Clock::time_point from = std::max(a, reach);
        if (b > from) {
          covered += MsBetween(from, b);
          reach = b;
        }
      }
      per_name[s->name] += MsBetween(s->start, s->end) - covered;
    }
    for (const auto& [name, ms] : per_name) out[name].push_back(ms);
  }
  return out;
}

/// Per-trace duration (ms) of the root span named `root`.
inline std::vector<double> RootDurations(const std::vector<Span>& spans,
                                         const std::string& root) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.parent == 0 && s.name == root) out.push_back(MsBetween(s.start, s.end));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Open-loop generator: request i is due at t0 + i / rate whatever happened to
// earlier requests, and its latency runs from that due time, so a stall
// charges every request that was due during it (no coordinated omission).
// ---------------------------------------------------------------------------

struct OpenLoopSample {
  double late_ms = 0.0;     // due -> actually sent
  double latency_ms = 0.0;  // due -> answer in hand
  double service_ms = 0.0;  // sent -> answer in hand
  bool ok = false;
};

/// Issues `n` requests at `rate` per second from `workers` threads; op(i, w)
/// serves request i on worker w and reports success.
inline std::vector<OpenLoopSample> RunOpenLoop(
    std::size_t n, double rate, std::size_t workers,
    const std::function<bool(std::size_t, std::size_t)>& op) {
  std::vector<OpenLoopSample> samples(n);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        const bool ok = op(i, w);
        const Clock::time_point done = Clock::now();
        samples[i] = {MsBetween(due, sent), MsBetween(due, done),
                      MsBetween(sent, done), ok};
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

// ---------------------------------------------------------------------------
// Zipf(s) over ranks [0, n): P(rank k) proportional to 1 / (k + 1)^s.
// ---------------------------------------------------------------------------

class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t Draw(dcert::Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace dcert::perfbench
