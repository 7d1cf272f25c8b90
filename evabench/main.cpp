//===- main.cpp - evabench: one workload per process ----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Usage: evabench --workload W --seed N --seconds S --trace 0|1
//                 [--out DIR] [--git-sha SHA]
//
// Runs one workload (compile_zoo, lenet_infer, image_apps, service_mixed)
// in this process, so peak memory and cache state belong to it alone.
// Prints every metric as `workload metric value unit`, a `# host` line,
// and as its last line one JSON object {correct, attempted, failed,
// metrics}; writes DIR/<workload>.json and, traced, DIR/<workload>.trace.json.
// Exit status 0 when every output was correct, 1 when one was not, 2 on a
// usage error.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "eva/support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace evabench;

namespace {

struct Workload {
  const char *Name;
  void (*Run)(const Options &, Report &, Tracer &);
};

const Workload Workloads[] = {
    {"compile_zoo", runCompileZoo},
    {"lenet_infer", runLenetInfer},
    {"image_apps", runImageApps},
    {"service_mixed", runServiceMixed},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "evabench: %s\nusage: evabench --workload "
               "compile_zoo|lenet_infer|image_apps|service_mixed --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--git-sha SHA]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno != 0 || End == Text || *End != '\0' || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  uint64_t Seconds = 0, Trace = 0;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    if (I + 1 >= Argc)
      return usage("every option takes a value");
    const char *Flag = Argv[I], *Value = Argv[++I];
    if (!std::strcmp(Flag, "--workload"))
      O.Workload = Value;
    else if (!std::strcmp(Flag, "--seed"))
      HaveSeed = parseUnsigned(Value, O.Seed);
    else if (!std::strcmp(Flag, "--seconds"))
      HaveSeconds = parseUnsigned(Value, Seconds) && Seconds >= 1 &&
                    Seconds <= 3600;
    else if (!std::strcmp(Flag, "--trace"))
      HaveTrace = parseUnsigned(Value, Trace) && Trace <= 1;
    else if (!std::strcmp(Flag, "--out"))
      O.OutDir = Value;
    else if (!std::strcmp(Flag, "--git-sha"))
      O.GitSha = Value;
    else
      return usage((std::string("unknown option ") + Flag).c_str());
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds (1..3600) and --trace (0|1) are required");
  const Workload *W = nullptr;
  for (const Workload &C : Workloads)
    if (O.Workload == C.Name)
      W = &C;
  if (!W)
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  O.Seconds = static_cast<double>(Seconds);
  O.Trace = Trace == 1;
  O.Threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);

  eva::Timer Wall;
  Report R(O.Workload, O.Trace);
  Tracer T(O.Trace);
  W->Run(O, R, T);
  if (O.Trace && !T.write(O.OutDir + "/" + O.Workload + ".trace.json")) {
    std::fprintf(stderr, "evabench: cannot write the trace\n");
    return 1;
  }
  if (!R.finish(O, Wall.seconds()))
    return 1;
  return R.failed() == 0 ? 0 : 1;
}
