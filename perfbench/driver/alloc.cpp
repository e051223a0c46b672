#include "alloc.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

constexpr int kSlots = 64;  // threads beyond this share the last slot

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

std::atomic<bool> counting{false};
std::atomic<int> next_slot{0};
Slot slots[kSlots];
thread_local int my_slot = -1;

Slot& own_slot() noexcept {
  if (my_slot < 0) {
    const int claimed = next_slot.fetch_add(1, std::memory_order_relaxed);
    my_slot = claimed < kSlots ? claimed : kSlots - 1;
  }
  return slots[my_slot];
}

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  if (counting.load(std::memory_order_relaxed))
    own_slot().count.fetch_add(1, std::memory_order_relaxed);
  if (align <= alignof(std::max_align_t)) return std::malloc(size ? size : 1);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void set_counting(bool on) noexcept {
  counting.store(on, std::memory_order_relaxed);
}

std::uint64_t thread_count() noexcept {
  return own_slot().count.load(std::memory_order_relaxed);
}

std::uint64_t process_count() noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots)
    total += slot.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench::alloc

using perfbench::alloc::counted_alloc;
using perfbench::alloc::counted_alloc_or_throw;

void* operator new(std::size_t size) { return counted_alloc_or_throw(size, 0); }
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
