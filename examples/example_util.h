// example_util.h - CLI plumbing shared by every example.
//
// The shared flags, parsed identically everywhere:
//   --threads=N      worker shards for engine-backed sweeps (0 = hardware
//                    concurrency); bit-identical results at any value.
//   --out-dir=DIR    where journals, snapshots and other artifacts land
//                    (created if needed; default "." — never a hardcoded
//                    file name in the repo root).
//   --trace-out=FILE write a Chrome trace-event JSON timeline of the run
//                    (open in https://ui.perfetto.dev or chrome://tracing).
//
// Each example passes its own flag names to Cli::parse and reads their
// values through Cli::read, which accepts plain decimal numbers only.
// Snapshots are always written in format v2 (corpus/snapshot.h).
//
// A flag value that is not a plain decimal number, a "--" argument that is
// neither a shared flag nor one of the example's own, or an --out-dir that
// cannot be created is a usage error: main() exits 2 before doing any work.
#pragma once

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "trace/chrome_export.h"
#include "trace/recorder.h"

namespace scent::examples {

struct Cli {
  unsigned threads = 1;
  std::string out_dir = ".";
  bool out_dir_ok = true;  ///< False when --out-dir could not be created.
  bool flags_ok = true;    ///< False on an unknown flag or invalid value.
  std::string trace_out;   ///< Empty = tracing off.

  /// Parses the shared flags. `own_flags` names the example's own flags:
  /// a name ending in '=' takes a value (read it with read()), any other
  /// is a switch (test it with has()). Every other "--" argument is an
  /// unknown flag. The Cli keeps views into `argv`, which must outlive it.
  static Cli parse(int argc, char** argv,
                   std::initializer_list<std::string_view> own_flags = {}) {
    Cli cli;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.starts_with("--threads=")) {
        if (!parse_decimal(arg.substr(10), cli.threads)) {
          std::fprintf(stderr, "error: %s is not a thread count\n", argv[i]);
          cli.flags_ok = false;
        }
      } else if (arg.starts_with("--out-dir=")) {
        cli.out_dir = argv[i] + 10;
      } else if (arg.starts_with("--trace-out=")) {
        cli.trace_out = argv[i] + 12;
      } else if (is_own_flag(arg, own_flags)) {
        cli.own_args_.push_back(arg);
      } else if (arg.starts_with("--")) {
        std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
        cli.flags_ok = false;
      }
    }
    // push_back, not = ".": GCC 12 flags a false -Wrestrict on that.
    if (cli.out_dir.empty()) cli.out_dir.push_back('.');
    if (cli.out_dir != ".") {
      std::error_code ec;
      std::filesystem::create_directories(cli.out_dir, ec);
      // create_directories reports false-without-error when the directory
      // already exists, so test existence, not the return value. An example
      // that cannot land artifacts must fail loudly, not write nothing and
      // exit 0 — main() checks require_valid() before doing any work.
      cli.out_dir_ok = std::filesystem::is_directory(cli.out_dir, ec);
      if (!cli.out_dir_ok) {
        std::fprintf(stderr, "error: cannot create --out-dir=%s\n",
                     cli.out_dir.c_str());
      }
    }
    return cli;
  }

  /// True when the switch `flag` (e.g. "--digest-only") was given.
  [[nodiscard]] bool has(std::string_view flag) const {
    for (const std::string_view arg : own_args_) {
      if (arg == flag) return true;
    }
    return false;
  }

  /// Stores the value of the example flag `flag` (e.g. "--days=") in
  /// `out`, the last occurrence winning; `out` keeps its default when the
  /// flag is absent. A value that is not a decimal number fitting T (a
  /// leading '-' only for signed T) is a usage error.
  template <typename T>
  void read(std::string_view flag, T& out) {
    for (const std::string_view arg : own_args_) {
      if (!arg.starts_with(flag)) continue;
      if (!parse_decimal(arg.substr(flag.size()), out)) {
        std::fprintf(stderr, "error: %.*s is not a number\n",
                     static_cast<int>(arg.size()), arg.data());
        flags_ok = false;
      }
    }
  }

  /// Exit status 2 for an unusable --out-dir or an invalid flag, else 0.
  /// Call after the last read(), before doing any work:
  ///   if (int rc = cli.require_valid()) return rc;
  [[nodiscard]] int require_valid() const noexcept {
    return out_dir_ok && flags_ok ? 0 : 2;
  }

  /// Routes an artifact file name through the output directory.
  [[nodiscard]] std::string path(const std::string& file) const {
    return out_dir + "/" + file;
  }

 private:
  /// The example's own arguments, in command-line order.
  std::vector<std::string_view> own_args_;

  static bool is_own_flag(std::string_view arg,
                          std::initializer_list<std::string_view> own_flags) {
    for (const std::string_view flag : own_flags) {
      if (flag.ends_with('=') ? arg.starts_with(flag) : arg == flag) {
        return true;
      }
    }
    return false;
  }

  /// Strict decimal parse: digits (and, for signed T, one leading '-')
  /// only, nonempty, fits in T.
  template <typename T>
  static bool parse_decimal(std::string_view text, T& out) {
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && stop == end;
  }
};

/// Owns the optional trace collector behind --trace-out. collector() is
/// null when tracing is off — the same pointer the instrumented layers
/// null-check — and finish() writes the Chrome trace-event JSON file and
/// reports it on stdout. Safe to call finish() exactly once, at the end.
class TraceSink {
 public:
  explicit TraceSink(const Cli& cli) : path_(cli.trace_out) {
    if (!path_.empty()) {
      collector_ = std::make_unique<trace::TraceCollector>();
    }
  }

  [[nodiscard]] trace::TraceCollector* collector() noexcept {
    return collector_.get();
  }

  /// Writes the trace when enabled. Returns false only on write failure.
  bool finish() {
    if (collector_ == nullptr) return true;
    if (!trace::write_chrome_trace(path_, *collector_)) {
      std::fprintf(stderr, "trace write failed: %s\n", path_.c_str());
      return false;
    }
    std::printf("trace: %s (%llu events across %zu lanes, %llu dropped)\n",
                path_.c_str(),
                static_cast<unsigned long long>(collector_->total_events()),
                collector_->lanes().size(),
                static_cast<unsigned long long>(collector_->total_dropped()));
    return true;
  }

 private:
  std::string path_;
  std::unique_ptr<trace::TraceCollector> collector_;
};

}  // namespace scent::examples
