// Shared helpers for the figure-reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper's evaluation
// (see DESIGN.md §4) and prints the same rows/series the figure reports,
// using simulated time. Absolute values depend on the cost model; the
// expectation is that the *shape* (who wins, by what factor, where
// crossovers fall) matches the paper, as recorded in EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "api/context.h"
#include "common/stats.h"
#include "common/table.h"
#include "trace/taxi.h"
#include "trace/tweet.h"
#include "trace/wiki.h"

namespace stark::bench {

// Streaming JSON writer shared by the machine-readable benches
// (chaos_resilience, overload, multitenant, tail_tolerance, remote_memory,
// auto_cache, ablation_cache_policy).
// Tracks nesting depth and comma placement so emit sites state only keys
// and values; one member per line, two-space indent. Output is fully
// deterministic — the bit-identity harness diffs it across runs. Values
// are printed with printf formats, so numeric layout is explicit at the
// call site (e.g. "%.6f" for seconds, "%.1f" for rates).
class JsonEmitter {
 public:
  explicit JsonEmitter(std::FILE* out = stdout) : out_(out) {}

  // Anonymous forms open the root object or an array element; keyed forms
  // open a member of the enclosing object.
  void begin_object() { open('{'); }
  void begin_object(const char* key) { open('{', key); }
  void begin_array(const char* key) { open('[', key); }
  void end_object() { close('}'); }
  void end_array() { close(']'); }

  void field(const char* key, const char* value);
  void field(const char* key, const std::string& value) {
    field(key, value.c_str());
  }
  void field(const char* key, bool value);
  void field(const char* key, int value);
  void field(const char* key, long long value);
  void field(const char* key, unsigned long long value);
  void field(const char* key, double value, const char* fmt = "%.6f");

 private:
  void open(char bracket, const char* key = nullptr);
  void close(char bracket);
  // Comma after the previous sibling, newline, indent, optional "key": .
  void lead(const char* key);

  std::FILE* out_;
  std::vector<bool> has_members_;  // per open scope
};

// Prints a standard header naming the figure being reproduced.
void print_header(const std::string& figure, const std::string& description);

// Default context options used across benches: the paper's 40-worker
// cluster (16 GB each) unless a bench narrows it.
ContextOptions paper_cluster(ConfigKind kind, int servers = 40);

// Wikipedia histogram helpers with the paper's ~800 MB hourly logs.
KeyHistogram wiki_hourly(int hour, Bytes bytes_per_hour = 800 * kMiB,
                         double exponent = 0.9, std::uint64_t urls = 4096);

// A sparkline-ish bar for quick visual scanning in terminal output.
std::string bar(double value, double max_value, int width = 32);

}  // namespace stark::bench
