// Linked into the benchmark's ps-serve build only: prints the process's
// operator-new count as the last line of stderr when main returns, where
// psbench reads it for the daemon's allocs_per_job.
#include <cstdio>

#include "alloc_count.h"

namespace {

struct ReportAtExit {
  ~ReportAtExit() {
    std::fprintf(stderr, "perfbench_allocs %llu\n",
                 static_cast<unsigned long long>(perfbench::alloc_count()));
  }
} g_report_at_exit;

}  // namespace
