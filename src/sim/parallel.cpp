#include "sim/parallel.h"

#include <algorithm>

#include "common/error.h"

namespace cosparse::sim {

ParallelExecutor::ParallelExecutor(std::uint32_t threads) {
  const std::uint32_t n = std::max<std::uint32_t>(1, threads);
  threads_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ParallelExecutor::run(std::uint32_t count,
                           const std::function<void(std::uint32_t)>& fn) {
  if (count == 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  COSPARSE_CHECK_MSG(job_ == nullptr, "ParallelExecutor::run is not reentrant");
  job_ = &fn;
  next_ = 0;
  count_ = count;
  pending_ = count;
  error_ = nullptr;
  work_cv_.notify_all();
  done_cv_.wait(lk, [&] { return pending_ == 0; });
  job_ = nullptr;
  if (error_ != nullptr) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ParallelExecutor::worker() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk,
                  [&] { return stop_ || (job_ != nullptr && next_ < count_); });
    if (stop_) return;
    while (job_ != nullptr && next_ < count_) {
      const std::uint32_t i = next_++;
      const auto* fn = job_;
      lk.unlock();
      std::exception_ptr err;
      try {
        (*fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      lk.lock();
      if (err != nullptr && error_ == nullptr) error_ = err;
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace cosparse::sim
