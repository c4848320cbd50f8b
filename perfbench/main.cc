// perfbench: one run of one workload.
//
//   perfbench --workload launch_deck|tune_sweep|serve_mix --seed N
//             --seconds S --trace 0|1 [--scratch-dir DIR]
//
// --trace 0 measures the workload's end-to-end metrics.  --trace 1 is the
// separate traced run: it times calls into each layer's public functions
// from outside, for every workload's layers (a third of --seconds each), so
// every per-layer metric prints on any workload: under --trace 1, --workload
// is checked but selects nothing.  Lines starting with '#'
// are context; the last line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench_util.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "launch_deck|tune_sweep|serve_mix --seed N --seconds S "
               "--trace 0|1 [--scratch-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--scratch-dir") {
      a.scratch_dir = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "launch_deck" && a.workload != "tune_sweep" &&
      a.workload != "serve_mix")
    return usage("unknown workload");
  if (!(a.seconds > 0)) return usage("--seconds must be positive");

  Result r;
  const double spin_start = host_spin_ms();
  const double chase_start = host_chase_ms();
  try {
    if (a.trace) {
      const double third = a.seconds / 3;
      trace_launch_deck(a, third, r);
      trace_tune_sweep(a, third, r);
      trace_serve_mix(a, third, r);
    } else if (a.workload == "launch_deck") {
      run_launch_deck(a, r);
    } else if (a.workload == "tune_sweep") {
      run_tune_sweep(a, r);
    } else {
      run_serve_mix(a, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const double spin_end = host_spin_ms();
  const double chase_end = host_chase_ms();
  note("host.spin_ms start=%.3f end=%.3f, host.chase_ms start=%.3f end=%.3f "
       "(fixed probes; a swing here is the host, not the program)",
       spin_start, spin_end, chase_start, chase_end);
  if (a.trace) {
    r.add("host.spin_ms.start", spin_start, "ms");
    r.add("host.spin_ms.end", spin_end, "ms");
    r.add("host.chase_ms.start", chase_start, "ms");
    r.add("host.chase_ms.end", chase_end, "ms");
  }
  std::printf("%s\n", r.json().c_str());
  return 0;
}
