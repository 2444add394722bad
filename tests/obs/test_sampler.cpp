// SampleProfiler unit tests: capture real SIGPROF samples from a busy
// loop, check phase attribution through the thread-local tag stack, the
// folded output format, the report JSON, and the start/stop lifecycle
// guards. Skipped wholesale on platforms without per-thread CPU timers.
#include "obs/sampler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.h"
#include "obs/flame.h"
#include "sim/parallel.h"

namespace cosparse::obs {
namespace {

/// Burns CPU until `ms` of wall time has elapsed, returning a data-dependent
/// value so the loop cannot be optimized away. CPU time is what the timers
/// meter, so a busy loop (not a sleep) is required to receive samples.
std::uint64_t burn_cpu_ms(int ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  std::uint64_t acc = 0x9e3779b97f4a7c15ull;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 4096; ++i) acc = acc * 6364136223846793005ull + 1u;
  }
  return acc;
}

TEST(SampleProfiler, CapturesSamplesAndAttributesPhases) {
  if (!SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  SampleProfiler profiler;
  ASSERT_TRUE(profiler.start());
  EXPECT_TRUE(profiler.running());
  EXPECT_TRUE(SampleProfiler::any_active());
  volatile std::uint64_t sink = 0;
  {
    const PhaseScope phase("test.burn");
    sink = burn_cpu_ms(400);
  }
  profiler.stop();
  EXPECT_FALSE(profiler.running());
  EXPECT_FALSE(SampleProfiler::any_active());
  (void)sink;

  // 400 ms of CPU at the default 1 kHz period: expect at least a handful
  // of samples even on hosts where the kernel fires CPU timers at jiffy
  // resolution (~100 Hz).
  EXPECT_GE(profiler.num_samples(), 5u);
  EXPECT_EQ(profiler.dropped_samples(), 0u);
  EXPECT_GE(profiler.num_threads(), 1u);

  // The burn phase dominates: its samples lead the folded stacks.
  const auto totals = profiler.phase_totals();
  ASSERT_FALSE(totals.empty());
  std::uint64_t burn = 0, all = 0;
  for (const auto& [phase, count] : totals) {
    all += count;
    if (phase == "test.burn") burn += count;
  }
  EXPECT_EQ(all, profiler.num_samples());
  EXPECT_GT(burn, all / 2) << profiler.folded();
}

TEST(SampleProfiler, FoldedOutputParsesAndNestsPhasesOutermostFirst) {
  if (!SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  SampleProfiler profiler;
  ASSERT_TRUE(profiler.start());
  volatile std::uint64_t sink = 0;
  {
    const PhaseScope outer("test.outer");
    const PhaseScope inner("test.inner");
    sink = burn_cpu_ms(300);
  }
  profiler.stop();
  (void)sink;
  ASSERT_GE(profiler.num_samples(), 3u);

  // The folded text round-trips through the flamegraph parser, and nested
  // scopes appear as "test.outer;test.inner;..." (outermost first).
  const FoldedProfile parsed = FoldedProfile::parse(profiler.folded());
  EXPECT_EQ(parsed.total_samples, profiler.num_samples());
  bool saw_nested = false;
  for (const auto& stack : parsed.stacks) {
    if (stack.frames.size() >= 2 && stack.frames[0] == "test.outer" &&
        stack.frames[1] == "test.inner") {
      saw_nested = true;
    }
  }
  EXPECT_TRUE(saw_nested) << profiler.folded();
  // Leaf-phase attribution: samples under both scopes count toward the
  // innermost phase.
  std::uint64_t inner_count = 0;
  for (const auto& [phase, count] : phase_totals(parsed)) {
    if (phase == "test.inner") inner_count = count;
  }
  EXPECT_GT(inner_count, 0u);
}

TEST(SampleProfiler, ReportJsonCarriesSchemaAndPhaseShares) {
  if (!SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  SampleProfiler profiler;
  ASSERT_TRUE(profiler.start());
  volatile std::uint64_t sink = 0;
  {
    const PhaseScope phase("test.report");
    sink = burn_cpu_ms(300);
  }
  profiler.stop();
  (void)sink;
  ASSERT_GE(profiler.num_samples(), 1u);

  const Json report = profiler.report_json();
  ASSERT_TRUE(report.is_object());
  EXPECT_EQ(report.find("schema")->as_string(), kCpuProfileSchema);
  EXPECT_EQ(report.find("period_us")->as_int(), 1000);
  EXPECT_EQ(static_cast<std::uint64_t>(report.find("samples")->as_int()),
            profiler.num_samples());
  const Json* phases = report.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_object());
  double share_sum = 0.0;
  for (const auto& [name, entry] : phases->members()) {
    (void)name;
    share_sum += entry.find("share")->as_double();
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(SampleProfiler, SecondStartWhileActiveFails) {
  if (!SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  SampleProfiler first;
  ASSERT_TRUE(first.start());
  SampleProfiler second;
  // The SIGPROF timer is process-wide: a second concurrent profiler must
  // refuse to start instead of corrupting the first one's sample stream.
  EXPECT_FALSE(second.start());
  first.stop();
  // ...and once the first stops, a fresh session can start again.
  EXPECT_TRUE(second.start());
  second.stop();
}

TEST(SampleProfiler, InternedPhaseTagsAreStableAcrossCalls) {
  const char* a = intern_phase_tag("test.interned_tag");
  const char* b = intern_phase_tag(std::string("test.interned_") + "tag");
  // Same pointer for the same string: the handler can capture the pointer
  // without the owner's lifetime mattering.
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::string(a), "test.interned_tag");
}

TEST(SampleProfiler, PhaseScopesAreHarmlessWithoutAnActiveProfiler) {
  // Scopes must be safe to enter/leave (and nest beyond the capture depth)
  // when nothing is sampling — the instrumented library code always runs
  // them, profiled or not.
  for (int i = 0; i < 3; ++i) {
    const PhaseScope p1("test.idle");
    const PhaseScope p2("test.idle");
    const PhaseScope p3("test.idle");
    const PhaseScope p4("test.idle");
    const PhaseScope p5("test.idle");
    const PhaseScope p6("test.idle");
    const PhaseScope p7("test.idle");
    const PhaseScope p8("test.idle");
    const PhaseScope p9("test.idle");  // deeper than kMaxPhaseDepth
    const PhaseScope p10("test.idle");
  }
  SUCCEED();
}

TEST(SampleProfiler, WorkerThreadSamplesAreHarvested) {
  if (!SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  SampleProfiler profiler;
  ASSERT_TRUE(profiler.start());
  volatile std::uint64_t sink = 0;
  std::thread worker([&sink] {
    const PhaseScope phase("test.worker");
    sink = burn_cpu_ms(400);
  });
  worker.join();
  profiler.stop();
  (void)sink;
  // The worker registers on its first PhaseScope, after start(), and arms
  // its own timer then.
  std::uint64_t worker_count = 0;
  for (const auto& [phase, count] : profiler.phase_totals()) {
    if (phase == "test.worker") worker_count = count;
  }
  EXPECT_GT(worker_count, 0u) << profiler.folded();
  EXPECT_GE(profiler.num_threads(), 1u);
}

/// `tasks` pool tasks spinning under the phase "test.pool" from
/// construction (which returns once all have started) to destruction, so
/// every sample taken meanwhile is taken inside a task, never in the
/// pool's dispatch path between tasks.
class SpinningPool {
 public:
  explicit SpinningPool(std::uint32_t tasks) : pool_(tasks) {
    submitter_ = std::thread([this, tasks] {
      const PhaseScope phase("test.pool");
      pool_.run(tasks, [this](std::uint32_t) {
        started_.fetch_add(1);
        std::uint64_t acc = 1;
        while (!done_.load(std::memory_order_relaxed)) acc = acc * 3 + 1;
        volatile std::uint64_t sink = acc;
        (void)sink;
      });
    });
    while (started_.load() < tasks) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~SpinningPool() {
    done_.store(true);
    submitter_.join();
  }
  SpinningPool(const SpinningPool&) = delete;
  SpinningPool& operator=(const SpinningPool&) = delete;

 private:
  sim::ParallelExecutor pool_;
  std::atomic<std::uint32_t> started_{0};
  std::atomic<bool> done_{false};
  std::thread submitter_;
};

/// The process's CPU time, all threads summed.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Pool workers push no tag of their own: each task runs under the
/// submitting thread's phase stack, so every sample on a worker is kept
/// and lands in the submitter's phase.
TEST(SampleProfiler, PoolTasksRunUnderSubmitterPhases) {
  if (!SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  const SpinningPool pool(4);
  const PhaseScope phase("test.pool");  // this thread sleeps meanwhile
  SampleProfiler profiler;
  ASSERT_TRUE(profiler.start());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  profiler.stop();

  EXPECT_GE(profiler.num_samples(), 5u);
  EXPECT_EQ(profiler.dropped_samples(), 0u) << profiler.folded();
  const auto totals = profiler.phase_totals();
  ASSERT_EQ(totals.size(), 1u) << profiler.folded();
  EXPECT_EQ(totals[0].first, "test.pool");
}

/// Samples per CPU-second of `tasks` spinning pool tasks over 500 ms.
double pool_samples_per_cpu_second(std::uint32_t tasks) {
  const SpinningPool pool(tasks);
  SampleProfiler profiler;
  EXPECT_TRUE(profiler.start());
  const double cpu_at_start = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double cpu = process_cpu_seconds() - cpu_at_start;
  profiler.stop();
  return static_cast<double>(profiler.num_samples() +
                             profiler.dropped_samples()) /
         cpu;
}

/// Each thread's timer runs on that thread's own CPU clock, so the sample
/// rate per CPU-second holds as threads are added. (One process-wide
/// timer kept 90 samples per CPU-second at 4 tasks against 233 at 1.)
TEST(SampleProfiler, ThreadedRunsKeepTheSerialSampleRate) {
  if (!SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  const double serial = pool_samples_per_cpu_second(1);
  const double threaded = pool_samples_per_cpu_second(4);
  ASSERT_GT(serial, 0.0);
  EXPECT_GE(threaded, 0.8 * serial)
      << serial << " samples per CPU-second at 1 task, " << threaded
      << " at 4";
}

TEST(SampleProfiler, FoldedOutputRecordsDroppedSamples) {
  if (!SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no per-thread CPU timers on this platform";
  }
  SampleProfiler profiler({.period_us = 1000, .max_samples_per_thread = 1});
  ASSERT_TRUE(profiler.start());
  {
    const PhaseScope phase("test.drops");
    volatile std::uint64_t sink = burn_cpu_ms(300);
    (void)sink;
  }
  profiler.stop();
  ASSERT_GT(profiler.dropped_samples(), 0u);  // a one-sample ring overflows
  const std::string folded = profiler.folded();
  EXPECT_EQ(folded.rfind(
                "(dropped) " + std::to_string(profiler.dropped_samples()), 0),
            0u)
      << folded;
  EXPECT_EQ(FoldedProfile::parse(folded).total_samples,
            profiler.num_samples() + profiler.dropped_samples());
  // The report's phase shares still cover kept samples only.
  EXPECT_EQ(profiler.report_json().find("phases")->find(kDroppedFrame),
            nullptr);
}

}  // namespace
}  // namespace cosparse::obs
