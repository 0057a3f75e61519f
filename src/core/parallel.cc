#include "src/core/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/logging.h"
#include "src/core/mutex.h"
#include "src/core/thread_annotations.h"

namespace adpa {
namespace {

thread_local int tls_region_depth = 0;

/// RAII marker so nested ParallelFor calls detect they are already inside a
/// parallel region and run inline.
struct RegionGuard {
  RegionGuard() { ++tls_region_depth; }
  ~RegionGuard() { --tls_region_depth; }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;
};

/// One ParallelFor invocation: a fixed list of chunks claimed via an atomic
/// cursor by whichever threads (workers + the caller) reach it first. Which
/// thread runs which chunk is scheduling-dependent; the chunk list itself —
/// and therefore the work done per output element — is not.
struct Job {
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  // Written once before the job is published to the queue; immutable
  // while any worker can see it.
  // analyze:allow(guard): immutable after publication
  std::vector<std::pair<int64_t, int64_t>> chunks;
  std::atomic<size_t> next_chunk{0};
  std::atomic<int> remaining{0};
  Mutex done_mutex;
  CondVar done_cv;
  std::exception_ptr error ADPA_GUARDED_BY(done_mutex);  ///< first failure
};

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) : num_threads_(num_threads) {
    ADPA_CHECK_GE(num_threads, 1);
    workers_.reserve(num_threads - 1);
    for (int i = 0; i + 1 < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(&mutex_);
      stop_ = true;
    }
    wake_cv_.NotifyAll();
    for (std::thread& worker : workers_) worker.join();
  }

  int num_threads() const { return num_threads_; }

  void Run(int64_t begin, int64_t end, int64_t grain,
           const std::function<void(int64_t, int64_t)>& fn) {
    const int64_t total = end - begin;
    // Floor division keeps every chunk at least `grain` indices wide.
    const int64_t max_chunks =
        std::max<int64_t>(1, std::min<int64_t>(num_threads_, total / grain));
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->chunks.reserve(max_chunks);
    // Balanced static partition: the first `total % max_chunks` chunks take
    // one extra index, so chunk boundaries depend only on (range, grain,
    // num_threads) — never on runtime timing.
    const int64_t base = total / max_chunks;
    const int64_t extra = total % max_chunks;
    int64_t at = begin;
    for (int64_t c = 0; c < max_chunks; ++c) {
      const int64_t size = base + (c < extra ? 1 : 0);
      job->chunks.emplace_back(at, at + size);
      at += size;
    }
    if (job->chunks.size() == 1) {
      // One chunk: the caller would execute it alone anyway. Skip the
      // queue/wake round-trip entirely — same bits, no pool overhead.
      fn(begin, end);
      return;
    }
    job->remaining.store(static_cast<int>(job->chunks.size()),
                         std::memory_order_relaxed);
    {
      MutexLock lock(&mutex_);
      jobs_.push_back(job);
    }
    // The caller takes one chunk itself, so only `chunks - 1` workers can
    // find work. Waking the whole pool for a 2-3 chunk job is a wake-storm
    // that measurably drags the serving path (sub-millisecond batch ops) at
    // high thread counts; wake exactly as many workers as can help.
    const size_t spare_chunks = job->chunks.size() - 1;
    if (spare_chunks >= workers_.size()) {
      wake_cv_.NotifyAll();
    } else {
      for (size_t i = 0; i < spare_chunks; ++i) wake_cv_.NotifyOne();
    }
    // The caller participates instead of blocking immediately.
    ExecuteChunks(*job);
    std::exception_ptr error;
    {
      MutexLock lock(&job->done_mutex);
      while (job->remaining.load(std::memory_order_acquire) != 0) {
        job->done_cv.Wait(&job->done_mutex);
      }
      error = job->error;
    }
    {
      MutexLock lock(&mutex_);
      for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
        if (it->get() == job.get()) {
          jobs_.erase(it);
          break;
        }
      }
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        MutexLock lock(&mutex_);
        while (!stop_ && jobs_.empty()) wake_cv_.Wait(&mutex_);
        if (stop_) return;
        job = jobs_.front();
        if (job->next_chunk.load(std::memory_order_relaxed) >=
            job->chunks.size()) {
          // Fully claimed; drop it so the queue drains even if the caller
          // is still waiting on stragglers.
          jobs_.pop_front();
          continue;
        }
      }
      ExecuteChunks(*job);
    }
  }

  static void ExecuteChunks(Job& job) {
    for (;;) {
      const size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.chunks.size()) return;
      {
        RegionGuard guard;
        try {
          (*job.fn)(job.chunks[c].first, job.chunks[c].second);
        } catch (...) {
          MutexLock lock(&job.done_mutex);
          if (!job.error) job.error = std::current_exception();
        }
      }
      if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(&job.done_mutex);
        job.done_cv.NotifyAll();
      }
    }
  }

  const int num_threads_;
  // Touched only by the constructor and destructor, never while workers
  // run.
  // analyze:allow(guard): ctor/dtor only
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar wake_cv_;
  std::deque<std::shared_ptr<Job>> jobs_ ADPA_GUARDED_BY(mutex_);
  bool stop_ ADPA_GUARDED_BY(mutex_) = false;
};

/// Process-wide pool configuration. Bundling the globals behind one guarded
/// struct (instead of a bare mutex + file-scope variables) lets the
/// thread-safety analysis prove every access to them holds `mu`.
struct PoolState {
  Mutex mu;
  int configured_threads ADPA_GUARDED_BY(mu) = 0;  ///< 0 = auto-detect
  ThreadPool* pool ADPA_GUARDED_BY(mu) = nullptr;  ///< leaked at exit
};

PoolState& State() {
  // One-time lazy init, leaked at exit like the pool itself.
  static PoolState* state = new PoolState;  // analyze:allow(alloc): one-time lazy init
  return *state;
}

ThreadPool& GetPool() {
  PoolState& state = State();
  MutexLock lock(&state.mu);
  if (state.pool == nullptr) {
    const int n = state.configured_threads > 0 ? state.configured_threads
                                               : DefaultNumThreads();
    state.pool = new ThreadPool(n);
  }
  return *state.pool;
}

}  // namespace

int DefaultNumThreads() {
  if (const char* env = std::getenv("ADPA_NUM_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed >= 1) {
      return static_cast<int>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int GetNumThreads() {
  PoolState& state = State();
  MutexLock lock(&state.mu);
  if (state.pool != nullptr) return state.pool->num_threads();
  return state.configured_threads > 0 ? state.configured_threads
                                      : DefaultNumThreads();
}

void SetNumThreads(int num_threads) {
  ADPA_CHECK(!InParallelRegion())
      << "SetNumThreads called from inside a ParallelFor body";
  PoolState& state = State();
  MutexLock lock(&state.mu);
  state.configured_threads = num_threads > 0 ? num_threads : 0;
  delete state.pool;  // joins workers; rebuilt lazily at the next ParallelFor
  state.pool = nullptr;
}

bool InParallelRegion() { return tls_region_depth > 0; }

SerialSection::SerialSection() { ++tls_region_depth; }
SerialSection::~SerialSection() { --tls_region_depth; }

namespace internal {

void ParallelForImpl(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn) {
  GetPool().Run(begin, end, grain, fn);
}

}  // namespace internal

}  // namespace adpa
