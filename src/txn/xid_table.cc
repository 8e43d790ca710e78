#include "txn/xid_table.h"

#include <sys/mman.h>

#include <new>

namespace gphtap {

void* MapZeroedPages(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void UnmapPages(void* addr, size_t bytes) { munmap(addr, bytes); }

void DiscardPages(void* addr, size_t bytes) { madvise(addr, bytes, MADV_DONTNEED); }

}  // namespace gphtap
