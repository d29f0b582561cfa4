// Counting global operator new/delete for the traced run: every
// allocation in the process is counted while counting is on, except on
// a thread inside an AllocExclude scope (the benchmark's own operand
// copies and bookkeeping, or a pure load-generator thread).  Off, the
// cost is one relaxed load.

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::atomic<bool> g_on{false};
std::atomic<long long> g_count{0};
std::atomic<long long> g_bytes{0};
thread_local bool t_excluded = false;

void* allocate(std::size_t size, std::size_t align) {
  if (g_on.load(std::memory_order_relaxed) && !t_excluded) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

void alloc_counting(bool on) { g_on.store(on, std::memory_order_relaxed); }

AllocExclude::AllocExclude() : previous_(t_excluded) { t_excluded = true; }
AllocExclude::~AllocExclude() { t_excluded = previous_; }

AllocCount alloc_now() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void* operator new(std::size_t size) { return allocate(size, 0); }
void* operator new[](std::size_t size) { return allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
