//===- perfbench/Main.cpp - Benchmark driver entry point ------------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   sgpu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   sgpu-perfbench compile --program=P --machine=M --timing=T --seed=N
//
// Workloads: table1-analytic, table1-cycle, served-graphgen. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; progress and per-program rows go to
// standard error. Exit status 0 unless the arguments or the output
// guard are bad.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>

using namespace sgpu;
using namespace sgpu::perfbench;

namespace {

void printUsage() {
  std::fprintf(stderr,
               "usage: sgpu-perfbench --workload table1-analytic|"
               "table1-cycle|served-graphgen\n"
               "                      --seed N --seconds S --trace 0|1\n");
}

/// Every end-to-end metric must be finite and > 0, every per-layer one
/// finite and >= 0; a run that breaks this prints no result.
bool guardMetrics(const RunResult &R, bool Trace) {
  bool Ok = true;
  for (const RunResult::Metric &M : R.Metrics) {
    bool Good = std::isfinite(M.Value) && (Trace ? M.Value >= 0.0
                                                 : M.Value > 0.0);
    if (!Good) {
      std::fprintf(stderr, "perfbench: corrupt metric %s = %g\n",
                   M.Name.c_str(), M.Value);
      Ok = false;
    }
  }
  return Ok && R.Attempted >= 1 && R.Failed >= 0 &&
         R.Failed <= R.Attempted;
}

} // namespace

int main(int argc, char **argv) {
  if (argc >= 2 && std::strcmp(argv[1], "compile") == 0)
    return compileMain(argc - 2, argv + 2);

  RunArgs A;
  int Trace = -1;
  bool Bad = false;
  for (int I = 1; I < argc; ++I) {
    if (I + 1 >= argc) {
      Bad = true;
      break;
    }
    const char *Flag = argv[I];
    const char *Value = argv[++I];
    if (std::strcmp(Flag, "--workload") == 0)
      A.Workload = Value;
    else if (std::strcmp(Flag, "--seed") == 0)
      A.Seed = std::strtoull(Value, nullptr, 10);
    else if (std::strcmp(Flag, "--seconds") == 0)
      A.Seconds = std::atof(Value);
    else if (std::strcmp(Flag, "--trace") == 0)
      Trace = std::atoi(Value);
    else
      Bad = true;
  }
  if (Bad || A.Workload.empty() || !(A.Seconds > 0.0) ||
      (Trace != 0 && Trace != 1)) {
    printUsage();
    return 2;
  }
  A.Trace = Trace == 1;
  // A served client must see a closed socket as an error, not a signal.
  std::signal(SIGPIPE, SIG_IGN);

  RunResult R;
  if (A.Workload == "table1-analytic" || A.Workload == "table1-cycle") {
    TimingModelKind T = A.Workload == "table1-cycle"
                            ? TimingModelKind::Cycle
                            : TimingModelKind::Analytic;
    R = A.Trace ? traceTableOne(A, T) : runTableOne(A, T);
  } else if (A.Workload == "served-graphgen") {
    R = A.Trace ? traceServed(A) : runServed(A);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    printUsage();
    return 2;
  }

  if (!guardMetrics(R, A.Trace))
    return 1;
  JsonWriter W;
  W.beginObject();
  W.writeBool("correct", R.Correct);
  W.writeInt("attempted", R.Attempted);
  W.writeInt("failed", R.Failed);
  W.beginObject("metrics");
  for (const RunResult::Metric &M : R.Metrics) {
    W.beginObject(M.Name);
    W.writeDouble("value", M.Value);
    W.writeString("unit", M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return 0;
}
