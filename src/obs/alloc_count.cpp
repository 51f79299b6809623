// Replaced global operator new/delete: every form forwards to malloc/free
// and counts the calling thread's allocations, which quiet mode (obs/prof)
// turns into a violation when a data worker's burst allocates.
#include <cstdlib>
#include <new>

#include "obs/prof.hpp"

namespace {

thread_local std::uint64_t t_heap_allocs = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_heap_allocs;
  if (size == 0) size = 1;
  for (;;) {
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(align, (size + align - 1) / align * align);
    if (p != nullptr) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) return nullptr;
    handler();
  }
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace sfc::obs {

std::uint64_t thread_heap_allocs() noexcept { return t_heap_allocs; }

}  // namespace sfc::obs

// NOLINTBEGIN(misc-new-delete-overloads): the full replaceable set.
void* operator new(std::size_t n) {
  return counted_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(al));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(al));
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
// NOLINTEND(misc-new-delete-overloads)
