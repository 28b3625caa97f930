// harness.cpp - timing, allocation counting and statistics helpers.
//
// This TU replaces the global operator new/delete with a malloc-backed
// pair that counts allocations while counting is switched on — the same
// technique bench_micro uses for its heap measurements.
#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

inline void note_alloc() noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) noexcept {
  note_alloc();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t align, std::size_t size) noexcept {
  note_alloc();
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  return posix_memalign(&p, align, size == 0 ? 1 : size) == 0 ? p : nullptr;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
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

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM honours reset_peak_rss(); getrusage's maxrss never resets.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  // Hand freed heap back first, so one iteration's fragmentation does not
  // count against the next one's peak.
  malloc_trim(0);
  if (std::FILE* clear = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", clear);
    std::fclose(clear);
  }
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocs_now() {
  return g_allocs.load(std::memory_order_relaxed);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool Verdict::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "oracle FAILED: %s\n", what.c_str());
  }
  return ok;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::uint64_t dir_bytes(const std::string& dir, const std::string& suffix) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file(ec) && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

}  // namespace perfbench
