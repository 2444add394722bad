#include "obs/sampler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "common/error.h"
#include "obs/flame.h"

#if defined(__linux__)
#define COSPARSE_SAMPLER_LINUX 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>
#endif

namespace cosparse::obs {

namespace {

constexpr int kMaxFrames = SampleProfiler::kMaxFrames;

/// One raw sample as written by the signal handler: program counters
/// innermost-first plus the phase-tag stack outermost-first. Pointers
/// only — symbolization happens at harvest. Trivial on purpose: a new ring
/// (~17 MB at the default capacity) is then never written at allocation,
/// so registering a thread mid-profile costs no page faults. The handler
/// writes every field of a slot before publishing it.
struct RawSample {
  void* pcs[kMaxFrames];
  const char* phases[kMaxPhaseDepth];
  int num_pcs;
  int num_phases;
};

/// Per-thread profiler state. Heap-allocated on a thread's first
/// PhaseScope and owned forever by the global registry (never freed), so
/// the signal handler can never race thread-local destruction; only the
/// ring storage itself is released at harvest. See DESIGN.md §13.
struct ThreadState {
  // ---- phase-tag stack, written by PhaseScope on this thread only ----
  const char* tags[kMaxPhaseDepth] = {};
  std::atomic<int> depth{0};  ///< may exceed kMaxPhaseDepth (outermost kept)

  // ---- sample ring, written by the handler on this thread only ----
  std::atomic<RawSample*> ring{nullptr};
  std::uint32_t capacity = 0;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> drops{0};

  /// True while the SIGPROF handler runs on this thread. Paired seq_cst
  /// with g_active so stop() can prove no handler still touches the ring
  /// before freeing it (Dekker-style: handler stores in_handler then
  /// loads g_active; stop() stores g_active then loads in_handler).
  std::atomic<bool> in_handler{false};

#ifdef COSPARSE_SAMPLER_LINUX
  // ---- the thread's CPU-time timer, guarded by registry_mutex() ----
  pthread_t thread{};
  pid_t tid = 0;
  bool alive = true;  ///< false once the thread's exit hook ran
  bool timed = false;  ///< `timer` exists
  timer_t timer{};
#endif
};

std::atomic<bool> g_active{false};
std::atomic<std::uint32_t> g_capacity{0};
std::atomic<std::uint32_t> g_period_us{0};
/// SIGPROFs landing on threads that never pushed a PhaseScope (no state):
/// our timers only signal registered threads, so these were sent by
/// someone else.
std::atomic<std::uint64_t> g_orphan_drops{0};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::vector<ThreadState*>& registry() {
  static auto* r = new std::vector<ThreadState*>();  // never freed: the
  return *r;  // handler may outlive any profiler instance
}

thread_local ThreadState* t_state = nullptr;

void arm_ring_locked(ThreadState* ts, std::uint32_t capacity) {
  if (ts->ring.load(std::memory_order_relaxed) != nullptr) return;
  auto* storage = new RawSample[capacity];
  ts->capacity = capacity;
  ts->head.store(0, std::memory_order_relaxed);
  ts->drops.store(0, std::memory_order_relaxed);
  ts->ring.store(storage, std::memory_order_release);
}

#ifdef COSPARSE_SAMPLER_LINUX

/// Arms a timer on the thread's own CPU clock that sends SIGPROF to that
/// thread every `period_us` of its CPU time. One timer per thread, not one
/// per process: a process-wide ITIMER_PROF is checked against the summed
/// CPU time of all threads but fires at most once per tick, so it loses
/// most of its samples once several threads run.
bool arm_timer_locked(ThreadState* ts, std::uint32_t period_us) {
  if (ts->timed || !ts->alive) return ts->timed;
  clockid_t clock;
  if (pthread_getcpuclockid(ts->thread, &clock) != 0) return false;
  sigevent ev;
  std::memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_THREAD_ID;
  ev.sigev_signo = SIGPROF;
  ev._sigev_un._tid = ts->tid;  // sigev_notify_thread_id
  timer_t timer;
  if (timer_create(clock, &ev, &timer) != 0) return false;
  itimerspec spec;
  spec.it_interval.tv_sec = static_cast<time_t>(period_us / 1000000u);
  spec.it_interval.tv_nsec = static_cast<long>(period_us % 1000000u) * 1000;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, nullptr) != 0) {
    timer_delete(timer);
    return false;
  }
  ts->timer = timer;
  ts->timed = true;
  return true;
}

void delete_timer_locked(ThreadState* ts) {
  if (!ts->timed) return;
  timer_delete(ts->timer);
  ts->timed = false;
}

/// Runs at thread exit: the thread's timer goes with it, and start() no
/// longer asks for the CPU clock of a thread that is gone.
struct ThreadExitHook {
  ThreadState* state = nullptr;
  ~ThreadExitHook() {
    if (state == nullptr) return;
    std::lock_guard<std::mutex> lock(registry_mutex());
    state->alive = false;
    delete_timer_locked(state);
  }
};
thread_local ThreadExitHook t_exit_hook;

/// Records which thread `ts` samples and hooks the thread's exit.
void bind_to_calling_thread(ThreadState* ts) {
  ts->thread = pthread_self();
  ts->tid = gettid();
  t_exit_hook.state = ts;
}

#else  // !COSPARSE_SAMPLER_LINUX

void bind_to_calling_thread(ThreadState*) {}
bool arm_timer_locked(ThreadState*, std::uint32_t) { return false; }
void delete_timer_locked(ThreadState*) {}

#endif  // COSPARSE_SAMPLER_LINUX

ThreadState* register_thread() {
  auto* ts = new ThreadState();
  bind_to_calling_thread(ts);
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    registry().push_back(ts);
    // A profiler may already be running: arm this thread's ring and timer
    // now so its samples are captured instead of dropped.
    if (g_active.load(std::memory_order_relaxed)) {
      arm_ring_locked(ts, g_capacity.load(std::memory_order_relaxed));
      arm_timer_locked(ts, g_period_us.load(std::memory_order_relaxed));
    }
  }
  t_state = ts;
  return ts;
}

}  // namespace

#ifdef COSPARSE_SAMPLER_LINUX

// External linkage under a unique name so harvest can filter the
// handler's own frames out of symbolized stacks by name.
extern "C" void cosparse_sigprof_handler(int /*signum*/) {
  const int saved_errno = errno;
  ThreadState* ts = t_state;
  if (ts == nullptr) {
    if (g_active.load(std::memory_order_relaxed))
      g_orphan_drops.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  ts->in_handler.store(true, std::memory_order_seq_cst);
  if (g_active.load(std::memory_order_seq_cst)) {
    RawSample* ring = ts->ring.load(std::memory_order_acquire);
    if (ring == nullptr) {
      ts->drops.fetch_add(1, std::memory_order_relaxed);
    } else {
      const std::uint64_t h = ts->head.load(std::memory_order_relaxed);
      if (h >= ts->capacity) {
        ts->drops.fetch_add(1, std::memory_order_relaxed);
      } else {
        RawSample& s = ring[h];
        int d = ts->depth.load(std::memory_order_relaxed);
        std::atomic_signal_fence(std::memory_order_acquire);
        if (d > kMaxPhaseDepth) d = kMaxPhaseDepth;  // outermost tags kept
        for (int i = 0; i < d; ++i) s.phases[i] = ts->tags[i];
        s.num_phases = d;
        s.num_pcs = backtrace(s.pcs, kMaxFrames);
        ts->head.store(h + 1, std::memory_order_release);
      }
    }
  }
  ts->in_handler.store(false, std::memory_order_release);
  errno = saved_errno;
}

#endif  // COSPARSE_SAMPLER_LINUX

const char* intern_phase_tag(const std::string& tag) {
  static std::mutex m;
  static auto* interned = new std::set<std::string>();  // process lifetime:
  std::lock_guard<std::mutex> lock(m);  // samples keep raw pointers
  return interned->insert(tag).first->c_str();
}

PhaseStack current_phase_stack() noexcept {
  PhaseStack stack;
  if (const ThreadState* ts = t_state; ts != nullptr) {
    stack.depth =
        std::min(ts->depth.load(std::memory_order_relaxed), kMaxPhaseDepth);
    std::copy_n(ts->tags, stack.depth, stack.tags);
  }
  return stack;
}

PhaseScope::PhaseScope(const char* tag) noexcept
    : PhaseScope(PhaseStack{{tag}, 1}) {}

PhaseScope::PhaseScope(const PhaseStack& stack) noexcept : state_(t_state) {
  if (state_ == nullptr) {
    try {
      state_ = register_thread();
    } catch (...) {
      return;  // out of memory: run untagged rather than crash
    }
  }
  auto* ts = static_cast<ThreadState*>(state_);
  for (; pushed_ < stack.depth; ++pushed_) {
    const int d = ts->depth.load(std::memory_order_relaxed);
    if (d < kMaxPhaseDepth) {
      ts->tags[d] = stack.tags[pushed_];
      // Publish the tag before the depth that exposes it to the (same
      // thread) signal handler.
      std::atomic_signal_fence(std::memory_order_release);
    }
    ts->depth.store(d + 1, std::memory_order_relaxed);
  }
}

PhaseScope::~PhaseScope() {
  if (state_ == nullptr) return;
  auto* ts = static_cast<ThreadState*>(state_);
  const int d = ts->depth.load(std::memory_order_relaxed);
  ts->depth.store(std::max(d - pushed_, 0), std::memory_order_relaxed);
}

SampleProfiler::SampleProfiler(SampleProfilerOptions opts) : opts_(opts) {
  if (opts_.period_us == 0) opts_.period_us = 1000;
  if (opts_.max_samples_per_thread == 0) opts_.max_samples_per_thread = 1;
}

SampleProfiler::~SampleProfiler() {
  if (running_) stop();
}

bool SampleProfiler::any_active() {
  return g_active.load(std::memory_order_relaxed);
}

bool SampleProfiler::platform_supported() {
#ifdef COSPARSE_SAMPLER_LINUX
  return true;
#else
  return false;
#endif
}

#ifdef COSPARSE_SAMPLER_LINUX

namespace {

std::uint64_t g_orphan_at_start = 0;

/// Strips a demangled symbol down to a stable folded-frame token:
/// parameter lists go (they bloat and vary by typedef), and the two
/// characters the folded format reserves (';' joins frames, ' ' splits
/// the count) are replaced.
std::string frame_token(std::string name) {
  const std::size_t paren = name.find('(');
  if (paren != std::string::npos && paren > 0) name.resize(paren);
  // Demangled template functions lead with their return type
  // ("IpResult ns::run_inner_product<...>"): drop everything before the
  // last space preceding the name/template-argument list.
  const std::size_t angle = name.find('<');
  const std::size_t space =
      name.rfind(' ', angle == std::string::npos ? name.size() : angle);
  if (space != std::string::npos && space + 1 < name.size())
    name.erase(0, space + 1);
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == ' ') c = '_';
  }
  return name.empty() ? std::string("[unknown]") : name;
}

std::string symbolize_pc(void* pc) {
  Dl_info info;
  std::memset(&info, 0, sizeof info);
  // pc is a return address: step back one byte so the call site's own
  // function is attributed, not whatever follows it.
  auto addr = reinterpret_cast<const void*>(
      reinterpret_cast<const char*>(pc) - 1);
  if (dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string name =
        (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
    return frame_token(std::move(name));
  }
  if (info.dli_fname != nullptr) {
    std::string file = info.dli_fname;
    const std::size_t slash = file.find_last_of('/');
    if (slash != std::string::npos) file.erase(0, slash + 1);
    std::string token = "[";
    token += frame_token(std::move(file));
    token += ']';
    return token;
  }
  return "[unknown]";
}

bool is_handler_frame(const std::string& symbol) {
  return symbol.find("cosparse_sigprof_handler") != std::string::npos ||
         symbol.find("__restore_rt") != std::string::npos ||
         symbol.find("_sigtramp") != std::string::npos;
}

}  // namespace

bool SampleProfiler::start() {
  if (running_ || g_active.load(std::memory_order_relaxed)) return false;

  // Prime backtrace() outside signal context: glibc lazily loads
  // libgcc_s (which allocates) on the first call; every later call is
  // then malloc-free and safe from the handler.
  void* prime[4];
  backtrace(prime, 4);

  // Install the handler once and leave it installed for the process
  // lifetime — restoring SIG_DFL would turn one late-delivered SIGPROF
  // into process death. With g_active false the handler is a no-op.
  static const bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = &cosparse_sigprof_handler;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    return sigaction(SIGPROF, &sa, nullptr) == 0;
  }();
  if (!installed) return false;

  // Make sure the calling thread has state so its samples are captured
  // even if it never enters a PhaseScope.
  if (t_state == nullptr) register_thread();

  g_capacity.store(opts_.max_samples_per_thread, std::memory_order_relaxed);
  g_period_us.store(opts_.period_us, std::memory_order_relaxed);
  g_orphan_at_start = g_orphan_drops.load(std::memory_order_relaxed);
  num_samples_ = 0;
  dropped_ = 0;
  num_threads_ = 0;
  stacks_.clear();
  {
    // Under the registry lock, so a thread registering meanwhile either
    // is armed here or sees g_active and arms itself.
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (ThreadState* ts : registry())
      arm_ring_locked(ts, opts_.max_samples_per_thread);
    g_active.store(true, std::memory_order_seq_cst);
    bool armed = true;
    for (ThreadState* ts : registry()) {
      const bool ok = arm_timer_locked(ts, opts_.period_us);
      armed = armed && (ok || ts != t_state);  // the caller's must arm
    }
    if (!armed) {
      g_active.store(false, std::memory_order_seq_cst);
      for (ThreadState* ts : registry()) delete_timer_locked(ts);
      return false;
    }
  }
  running_ = true;
  return true;
}

void SampleProfiler::stop() {
  if (!running_) return;
  running_ = false;

  std::map<std::string, std::uint64_t> folded;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (ThreadState* ts : registry()) delete_timer_locked(ts);
    // From here no handler invocation touches any ring (Dekker pairing
    // with the handler's in_handler/g_active protocol); wait out the ones
    // already past the check before freeing storage.
    g_active.store(false, std::memory_order_seq_cst);
    for (ThreadState* ts : registry()) {
      while (ts->in_handler.load(std::memory_order_seq_cst)) {
        // Spin: handlers are a few microseconds.
      }
      RawSample* ring = ts->ring.load(std::memory_order_acquire);
      if (ring == nullptr) continue;
      const std::uint64_t n = ts->head.load(std::memory_order_acquire);
      dropped_ += ts->drops.load(std::memory_order_relaxed);
      if (n > 0) ++num_threads_;
      for (std::uint64_t i = 0; i < n; ++i) {
        const RawSample& s = ring[i];
        std::string key;
        if (s.num_phases == 0) {
          key = "(untagged)";
        } else {
          for (int p = 0; p < s.num_phases; ++p) {
            if (p > 0) key += ';';
            key += s.phases[p];
          }
        }
        // pcs are innermost-first; folded wants outermost-first, with
        // the handler's own capture frames dropped.
        for (int f = s.num_pcs - 1; f >= 0; --f) {
          std::string symbol = symbolize_pc(s.pcs[f]);
          if (is_handler_frame(symbol)) continue;
          key += ';';
          key += symbol;
        }
        folded[key] += 1;
        ++num_samples_;
      }
      ts->ring.store(nullptr, std::memory_order_relaxed);
      ts->head.store(0, std::memory_order_relaxed);
      ts->capacity = 0;
      delete[] ring;
    }
  }
  dropped_ +=
      g_orphan_drops.load(std::memory_order_relaxed) - g_orphan_at_start;
  stacks_.assign(folded.begin(), folded.end());
}

#else  // !COSPARSE_SAMPLER_LINUX

bool SampleProfiler::start() { return false; }
void SampleProfiler::stop() { running_ = false; }

#endif  // COSPARSE_SAMPLER_LINUX

std::string SampleProfiler::folded() const {
  // "(dropped)" sorts before every phase frame, so the text stays sorted.
  if (dropped_ == 0) return kept_folded();
  return std::string(kDroppedFrame) + " " + std::to_string(dropped_) + "\n" +
         kept_folded();
}

std::string SampleProfiler::kept_folded() const {
  std::string out;
  for (const auto& [stack, count] : stacks_) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
SampleProfiler::phase_totals() const {
  return obs::phase_totals(FoldedProfile::parse(kept_folded()));
}

Json SampleProfiler::report_json() const {
  Json j = Json::object();
  j["schema"] = kCpuProfileSchema;
  j["period_us"] = static_cast<std::int64_t>(opts_.period_us);
  j["samples"] = num_samples_;
  j["dropped_samples"] = dropped_;
  j["threads"] = static_cast<std::int64_t>(num_threads_);
  j["phases"] = phases_json(FoldedProfile::parse(kept_folded()));
  return j;
}

// ---- CpuProfileSession ----

void CpuProfileSession::add_cli_options(CliParser& cli) {
  cli.add_option("cpu-profile",
                 "sample host CPU into this folded-stack file (plus a "
                 "<path>.html flamegraph); empty = off",
                 "");
  cli.add_option("cpu-profile-period-us",
                 "CPU-profile sampling period in CPU microseconds", "1000");
}

CpuProfileSession::CpuProfileSession() = default;

CpuProfileSession::~CpuProfileSession() {
  if (profiler_ != nullptr && !finalized_) finalize();
}

void CpuProfileSession::init(const CliParser& cli, const std::string& tool) {
  tool_ = tool;
  if (cli.has("cpu-profile")) path_ = cli.str("cpu-profile");
  if (path_.empty()) {
    const char* env = std::getenv("COSPARSE_CPU_PROFILE");
    if (env != nullptr) path_ = env;
  }
  if (path_.empty()) return;

  SampleProfilerOptions opts;
  if (cli.has("cpu-profile-period-us")) {
    const std::int64_t period = cli.integer("cpu-profile-period-us");
    if (period > 0) opts.period_us = static_cast<std::uint32_t>(period);
  }
  profiler_ = std::make_unique<SampleProfiler>(opts);
  if (!profiler_->start()) {
    std::cerr << tool_ << ": warning: CPU profiler failed to start ("
              << (SampleProfiler::platform_supported()
                      ? "another profiler is active"
                      : "platform unsupported")
              << "); continuing unprofiled\n";
    profiler_.reset();
    path_.clear();
  }
}

int CpuProfileSession::finalize() {
  if (profiler_ == nullptr || finalized_) return 0;
  finalized_ = true;
  profiler_->stop();
  report_ = profiler_->report_json();
  report_["tool"] = tool_;

  const std::string folded_text = profiler_->folded();
  bool io_ok = true;
  {
    std::ofstream out(path_);
    out << folded_text;
    io_ok = io_ok && out.good();
  }
  {
    std::ofstream out(path_ + ".html");
    out << render_flamegraph_html(FoldedProfile::parse(folded_text),
                                  tool_ + " CPU profile");
    io_ok = io_ok && out.good();
  }
  if (!io_ok) {
    std::cerr << tool_ << ": warning: failed writing CPU profile to " << path_
              << "\n";  // never fail the run over profiler IO
  }
  return 0;
}

}  // namespace cosparse::obs
