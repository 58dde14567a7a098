// Self-tests of the benchmark's own machinery: the percentile rule, the
// open-loop timing, self-time attribution, per-item minima, and the
// determinism of the seeded inputs and of the certificates issued over them.
// Run with `python3 perfbench/run.py --selftest`.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "certify.h"
#include "harness.h"
#include "inputs.h"

using namespace dcert;
using namespace dcert::perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                               \
  do {                                                            \
    if (!(cond)) {                                                \
      ++failures;                                                 \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
    }                                                             \
  } while (0)

std::vector<double> Iota(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 1; i <= n; ++i) xs.push_back(static_cast<double>(i));
  return xs;
}

void PercentileNeedsTenBeyond() {
  CHECK(MinSamplesFor(0.9) == 100);
  CHECK(MinSamplesFor(0.99) == 1000);
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(!Percentile(Iota(999), 0.99).has_value());
  CHECK(!Percentile(Iota(99), 0.9).has_value());
  const std::optional<double> p99 = Percentile(Iota(1000), 0.99);
  CHECK(p99.has_value() && *p99 == 990.0);
  const std::optional<double> p90 = Percentile(Iota(100), 0.9);
  CHECK(p90.has_value() && *p90 == 90.0);
  CHECK(Median({3, 1, 2}) == 2.0);
  CHECK(Median({4, 1, 2, 3}) == 2.5);
}

void OpenLoopTimesFromDueTime() {
  // One worker, requests due every 1 ms, each taking 5 ms: the backlog grows
  // and request i waits about 4 ms per earlier request, which latency (from
  // the due time) must include and service time (from the send) must not.
  constexpr std::size_t kN = 20;
  const auto samples = RunOpenLoop(kN, 1000.0, 1, [](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return true;
  });
  CHECK(samples.size() == kN);
  const OpenLoopSample& last = samples.back();
  CHECK(last.ok);
  CHECK(last.late_ms >= 4.0 * (kN - 1) - 1.0);
  CHECK(last.latency_ms >= last.late_ms + 5.0);
  CHECK(last.service_ms < 20.0);
  CHECK(samples.front().latency_ms < 20.0);
}

Span At(const char* name, std::uint32_t id, std::uint32_t parent, int from_ms,
        int to_ms) {
  const Clock::time_point t0{};
  Span s;
  s.name = name;
  s.trace = 7;
  s.id = id;
  s.parent = parent;
  s.start = t0 + std::chrono::milliseconds(from_ms);
  s.end = t0 + std::chrono::milliseconds(to_ms);
  return s;
}

void SelfTimeSubtractsCoveredChildTime() {
  // Overlapping children count once; the grandchild is the child's, not the
  // root's.
  const std::vector<Span> spans = {
      At("root", 1, 0, 0, 10), At("a", 2, 1, 1, 3), At("b", 3, 1, 2, 5),
      At("c", 4, 1, 7, 8), At("d", 5, 3, 2, 4)};
  auto self = SelfTimesByName(spans);
  CHECK(self["root"].size() == 1 && self["root"][0] == 5.0);
  CHECK(self["a"][0] == 2.0);
  CHECK(self["b"][0] == 1.0);
  CHECK(self["c"][0] == 1.0);
  CHECK(self["d"][0] == 2.0);
  CHECK(RootDurations(spans, "root") == std::vector<double>{10.0});
}

void MinPerItemKeepsEachItemsFastestRepetition() {
  // Items 0..2 measured twice each, in two rounds, plus a third look at 1.
  const std::vector<double> xs = {5, 9, 4, 3, 8, 6, 7};
  const std::vector<std::size_t> idx = {0, 1, 2, 0, 1, 2, 1};
  CHECK((MinPerItem(xs, idx) == std::vector<double>{3, 7, 4}));
}

void SameSeedSameInputs() {
  CHECK(MakeQueryStream(500, 4096, 0.99, 5) == MakeQueryStream(500, 4096, 0.99, 5));
  CHECK(MakeQueryStream(500, 4096, 0.99, 5) != MakeQueryStream(500, 4096, 0.99, 6));

  const CertifyInputs a = MakeCertifyInputs(workloads::Workload::kSmallBank, 3, 5, 9);
  const CertifyInputs b = MakeCertifyInputs(workloads::Workload::kSmallBank, 3, 5, 9);
  const CertifyInputs c = MakeCertifyInputs(workloads::Workload::kSmallBank, 3, 5, 10);
  CHECK(a.blocks.size() == 3 && b.blocks.size() == 3);
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    CHECK(a.blocks[i].header.Hash() == b.blocks[i].header.Hash());
  }
  CHECK(a.final_root == b.final_root);
  CHECK(a.blocks.back().header.Hash() != c.blocks.back().header.Hash());

  const ServeInputs s1 = MakeServeInputs(2, 1, 4, 64, 0.99, 3);
  const ServeInputs s2 = MakeServeInputs(2, 1, 4, 64, 0.99, 3);
  CHECK(s1.account_words == s2.account_words);
  CHECK(s1.feed.size() == 1 && s2.feed.size() == 1);
  CHECK(s1.feed[0].block.header.Hash() == s2.feed[0].block.header.Hash());
  CHECK(s1.feed[0].index_cert.Serialize() == s2.feed[0].index_cert.Serialize());
}

void SameSeedSameCertificates(const std::string& dir) {
  const CertifyInputs in = MakeCertifyInputs(workloads::Workload::kSmallBank, 4, 3, 21);
  CertifyConfig cfg;
  cfg.ckpt_interval = 2;
  cfg.segment_records = 2;
  cfg.dir = dir + "/a";
  CertifyResult r1;
  CertifyEpochs(in, cfg, 0.0, r1);
  CertifyEpochs(in, cfg, 0.0, r1);  // re-issues epoch 0 byte for byte
  cfg.dir = dir + "/b";
  CertifyResult r2;
  CertifyEpochs(in, cfg, 0.0, r2);
  CHECK(r1.correct && r2.correct);
  CHECK(r1.epochs == 2 && r1.block_ms.size() == 8 && r2.epochs == 1);
  CHECK(CertDigest(r1) == CertDigest(r2));
  CertifyResult r3;
  CertifyEpochs(MakeCertifyInputs(workloads::Workload::kSmallBank, 4, 3, 22), cfg, 0.0, r3);
  CHECK(r3.correct && CertDigest(r3) != CertDigest(r1));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <work dir>\n");
    return 2;
  }
  PercentileNeedsTenBeyond();
  OpenLoopTimesFromDueTime();
  SelfTimeSubtractsCoveredChildTime();
  MinPerItemKeepsEachItemsFastestRepetition();
  SameSeedSameInputs();
  SameSeedSameCertificates(argv[1]);
  std::printf("%s (%d failed checks)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
