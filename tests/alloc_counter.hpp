// Process-wide heap accounting for tests that gate allocation behaviour.
//
// Replaces the global operator new/delete of the test binary so a test can
// read how many allocations a call made and how many bytes stay live.
// Replacement allocation functions must be defined exactly once per
// program: include this header from one translation unit of a binary only.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace oll::test {

inline std::atomic<std::int64_t> g_live_heap_bytes{0};
inline std::atomic<std::uint64_t> g_heap_allocations{0};

// Bytes currently allocated through operator new (by usable size).
inline std::int64_t live_heap_bytes() {
  return g_live_heap_bytes.load(std::memory_order_relaxed);
}
// operator new calls so far.
inline std::uint64_t heap_allocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

inline void* counted_alloc(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_heap_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  return p;
}

inline void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  std::free(p);
}

}  // namespace oll::test

// The array and nothrow forms forward to these in libstdc++.
void* operator new(std::size_t n) {
  return oll::test::counted_alloc(std::malloc(n != 0 ? n : 1));
}
void* operator new(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return oll::test::counted_alloc(
      std::aligned_alloc(a, (n + a - 1) / a * a + (n == 0 ? a : 0)));
}
void operator delete(void* p) noexcept { oll::test::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  oll::test::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  oll::test::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  oll::test::counted_free(p);
}
