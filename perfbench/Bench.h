//===- perfbench/Bench.h - Compile-and-serve benchmark ----------*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark driver: the run arguments, the result
/// every workload fills, the fixed compile options, statistics helpers
/// and child-process management. README.md in this directory describes
/// the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#ifndef SGPU_PERFBENCH_BENCH_H
#define SGPU_PERFBENCH_BENCH_H

#include "core/Compiler.h"

#include <cstdint>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace sgpu {
namespace perfbench {

/// Scheduling-engine workers of every compile, CLI and daemon alike.
inline constexpr int kEngineWorkers = 2;
/// The deterministic solver cut (the one tools/perf_gate uses): B&B
/// nodes per candidate II and simplex iterations per LP, with the wall
/// budget set out of reach so load never decides where a search stops.
inline constexpr int kMaxIlpNodes = 400;
inline constexpr int kMaxLpIterations = 2000;
inline constexpr double kOutOfReachBudgetSeconds = 300.0;

/// The Table I program whose hybrid compile ships a schedule slower than
/// its GPU-only one, against the rule that no mode may ship a result
/// slower than the baseline it claims to beat. Each round counts it as
/// a failed operation; the same failure on any other program is a wrong
/// result.
inline constexpr const char *kKnownSlowHybrid = "FFT";

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
};

/// What one run reports: the contract's last-line JSON object.
struct RunResult {
  struct Metric {
    std::string Name;
    double Value = 0.0;
    std::string Unit;
  };

  bool Correct = true;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Marks the run incorrect and says why on stderr.
  void wrong(const std::string &Why);
};

/// The Table I compile: SWP8, schema auto, kEngineWorkers workers and
/// the deterministic solver cut, on \p Machine under \p Timing.
CompileOptions tableOneOptions(MachineMode Machine, TimingModelKind Timing);

/// The eight Table I programs in registry order.
std::vector<std::string> tableOnePrograms();

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double nowSeconds();
double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 1].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
/// This process's peak resident set, MiB.
double selfPeakRssMib();
/// A live child's peak resident set (VmHWM), MiB; 0 when unreadable.
double processPeakRssMib(pid_t Pid);

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

/// Path of the running executable (children are spawned from it).
std::string selfExe();

/// Runs \p Argv to completion and returns its standard output, or
/// std::nullopt when it could not start or exited non-zero.
std::optional<std::string> runChild(const std::vector<std::string> &Argv);

/// Starts \p Argv in the background with standard output and error
/// going to \p LogPath; -1 when it could not start.
pid_t spawnLogged(const std::vector<std::string> &Argv,
                  const std::string &LogPath);

/// Waits for \p Pid, retrying on EINTR; true when it exited with 0.
bool waitOk(pid_t Pid);

/// Removes \p Path and everything below it; missing paths are fine.
void removeTree(const std::string &Path);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

RunResult runTableOne(const RunArgs &A, TimingModelKind Timing);
RunResult runServed(const RunArgs &A);
RunResult traceTableOne(const RunArgs &A, TimingModelKind Timing);
RunResult traceServed(const RunArgs &A);

/// `compile` subcommand: one fresh-process Table I compile plus its
/// checks, reported as one JSON line.
int compileMain(int Argc, char **Argv);

} // namespace perfbench
} // namespace sgpu

#endif // SGPU_PERFBENCH_BENCH_H
