// fsync/fdatasync counting across the benchmark's process tree. The
// benchmark links the analyzer with -Wl,--wrap=fsync,--wrap=fdatasync, so
// every call, in the benchmark, in batch workers and in the daemon's
// handlers, passes through here. The count lives in a MAP_SHARED page made
// before the first fork.
#include "fsync_count.hpp"

#include <sys/mman.h>

#include <atomic>
#include <new>

extern "C" int __real_fsync(int fd);
extern "C" int __real_fdatasync(int fd);

namespace psabench {

namespace {

std::atomic<std::uint64_t>* shared_counter() {
  static std::atomic<std::uint64_t>* counter = [] {
    void* mem = ::mmap(nullptr, sizeof(std::atomic<std::uint64_t>),
                       PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1,
                       0);
    if (mem == MAP_FAILED) {
      static std::atomic<std::uint64_t> local{0};
      return &local;
    }
    return new (mem) std::atomic<std::uint64_t>{0};
  }();
  return counter;
}

}  // namespace

void init_fsync_counter() { (void)shared_counter(); }

std::uint64_t fsyncs_issued() {
  return shared_counter()->load(std::memory_order_relaxed);
}

}  // namespace psabench

extern "C" int __wrap_fsync(int fd) {
  psabench::shared_counter()->fetch_add(1, std::memory_order_relaxed);
  return __real_fsync(fd);
}

extern "C" int __wrap_fdatasync(int fd) {
  psabench::shared_counter()->fetch_add(1, std::memory_order_relaxed);
  return __real_fdatasync(fd);
}
