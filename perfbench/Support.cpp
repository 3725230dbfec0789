//===- perfbench/Support.cpp - Statistics, options, child processes -------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "benchmarks/Registry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace sgpu {
namespace perfbench {

void RunResult::wrong(const std::string &Why) {
  Correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", Why.c_str());
}

CompileOptions tableOneOptions(MachineMode Machine, TimingModelKind Timing) {
  CompileOptions O;
  O.Strat = Strategy::Swp;
  O.Coarsening = 8;
  O.Schema = SchemaMode::Auto;
  O.Machine = Machine;
  O.Timing = Timing;
  O.Sched.Pmax = 16;
  O.Sched.NumWorkers = kEngineWorkers;
  O.Sched.TimeBudgetSeconds = kOutOfReachBudgetSeconds;
  O.Sched.MaxIlpNodes = kMaxIlpNodes;
  O.Sched.MaxLpIterations = kMaxLpIterations;
  return O;
}

std::vector<std::string> tableOnePrograms() {
  std::vector<std::string> Names;
  for (const bench::BenchmarkSpec &S : bench::allBenchmarks())
    Names.push_back(S.Name);
  return Names;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

double selfPeakRssMib() {
  rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux.
}

double processPeakRssMib(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // Reported in kB.
  return 0.0;
}

std::string selfExe() {
  std::error_code Ec;
  std::filesystem::path P = std::filesystem::read_symlink("/proc/self/exe", Ec);
  return Ec ? std::string() : P.string();
}

namespace {

std::vector<char *> argvOf(const std::vector<std::string> &Argv) {
  std::vector<char *> Out;
  for (const std::string &S : Argv)
    Out.push_back(const_cast<char *>(S.c_str()));
  Out.push_back(nullptr);
  return Out;
}

} // namespace

bool waitOk(pid_t Pid) {
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return false;
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

std::optional<std::string> runChild(const std::vector<std::string> &Argv) {
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return std::nullopt;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  std::vector<char *> Args = argvOf(Argv);
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  if (Rc != 0) {
    ::close(Pipe[0]);
    return std::nullopt;
  }
  std::string Out;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  ::close(Pipe[0]);
  if (!waitOk(Pid))
    return std::nullopt;
  return Out;
}

pid_t spawnLogged(const std::vector<std::string> &Argv,
                  const std::string &LogPath) {
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&Actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char *> Args = argvOf(Argv);
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Actions);
  return Rc == 0 ? Pid : -1;
}

void removeTree(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::remove_all(Path, Ec);
}

} // namespace perfbench
} // namespace sgpu
