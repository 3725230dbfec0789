//===- perfbench/TableOne.cpp - Fresh-process Table I compiles ------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
//
// The table1-analytic and table1-cycle workloads. A round compiles the
// eight Table I programs on the gpu and hybrid machines, each in a
// fresh process (the `compile` subcommand), as a CLI user would. The
// child times compileForGpu plus CUDA emission, records its peak RSS,
// and only then runs the checks: the verifier with the machine model,
// MII <= II <= 4 MII, and the schedule run on SwpFunctionalSim against
// the sequential interpreter over the program's seeded input.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "benchmarks/Registry.h"
#include "core/ScheduleVerifier.h"
#include "gpusim/FunctionalSim.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <cstdio>
#include <cstring>
#include <map>

namespace sgpu {
namespace perfbench {

namespace {

/// The program the set-up warm-up spawn compiles, checks included
/// (about 3 ms of compile under analytic timing, 0.3 s under cycle).
constexpr const char *kWarmUpProgram = "MatrixMult";

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

bool flagValue(const char *Arg, const char *Name, std::string *Out) {
  size_t N = std::strlen(Name);
  if (std::strncmp(Arg, Name, N) != 0 || Arg[N] != '=')
    return false;
  *Out = Arg + N + 1;
  return true;
}

/// Everything the parent needs from one child compile.
struct CompileOutcome {
  bool Ok = false;
  std::string Error;
  double CompileS = 0.0;
  double RssMib = 0.0;
  double II = 0.0, MII = 0.0, Speedup = 0.0;
  double BufferBytes = 0.0;
  double BnbNodes = 0.0, Pivots = 0.0;
};

/// Reads the child's one-line JSON report.
std::optional<CompileOutcome> parseOutcome(const std::string &Text) {
  std::optional<JsonValue> Doc = JsonValue::parse(Text);
  if (!Doc || !Doc->isObject())
    return std::nullopt;
  auto Num = [&](const char *K) {
    const JsonValue *V = Doc->find(K);
    return V && V->isNumber() ? V->asNumber() : 0.0;
  };
  CompileOutcome O;
  const JsonValue *Ok = Doc->find("ok");
  O.Ok = Ok && Ok->asBool();
  if (const JsonValue *E = Doc->find("error"); E && E->isString())
    O.Error = E->asString();
  O.CompileS = Num("compile_s");
  O.RssMib = Num("rss_mib");
  O.II = Num("ii");
  O.MII = Num("mii");
  O.Speedup = Num("speedup");
  O.BufferBytes = Num("buffer_bytes");
  O.BnbNodes = Num("bnb_nodes");
  O.Pivots = Num("pivots");
  return O;
}

std::optional<CompileOutcome> spawnCompile(const std::string &Program,
                                           MachineMode Machine,
                                           TimingModelKind Timing,
                                           uint64_t Seed) {
  std::optional<std::string> Out = runChild(
      {selfExe(), "compile", "--program=" + Program,
       std::string("--machine=") + machineModeName(Machine),
       std::string("--timing=") + timingModelKindName(Timing),
       "--seed=" + std::to_string(Seed)});
  if (!Out)
    return std::nullopt;
  return parseOutcome(*Out);
}

} // namespace

int compileMain(int Argc, char **Argv) {
  std::string Program, MachineName = "gpu", TimingName = "analytic";
  std::string SeedText = "1";
  for (int I = 0; I < Argc; ++I) {
    if (flagValue(Argv[I], "--program", &Program) ||
        flagValue(Argv[I], "--machine", &MachineName) ||
        flagValue(Argv[I], "--timing", &TimingName) ||
        flagValue(Argv[I], "--seed", &SeedText))
      continue;
    std::fprintf(stderr, "compile: unknown argument '%s'\n", Argv[I]);
    return 2;
  }
  const bench::BenchmarkSpec *Spec = bench::findBenchmark(Program);
  std::optional<MachineMode> Machine = parseMachineMode(MachineName);
  std::optional<TimingModelKind> Timing = parseTimingModelKind(TimingName);
  if (!Spec || !Machine || !Timing) {
    std::fprintf(stderr, "compile: bad program, machine or timing\n");
    return 2;
  }
  const uint64_t Seed = std::strtoull(SeedText.c_str(), nullptr, 10);

  StreamGraph G = flatten(*Spec->Build());
  CompileOptions Options = tableOneOptions(*Machine, *Timing);
  MetricsRegistry::global().reset();

  // Timed: what `sgpu-compile --cuda` does past flattening.
  double Start = nowSeconds();
  std::optional<CompileReport> R = compileForGpu(G, Options);
  std::optional<SteadyState> SS;
  std::string Cuda;
  if (R) {
    SS = SteadyState::compute(G);
    CudaEmitOptions Emit;
    Emit.Layout = R->Layout;
    Emit.Coarsening = R->Coarsening;
    Cuda = createKernelSchema(R->Schema.Kind)
               ->emit(G, *SS, R->Config, R->GSS, R->Schedule, R->Schema,
                      Emit);
  }
  double CompileS = nowSeconds() - Start;
  double RssMib = selfPeakRssMib();
  MetricsRegistry::Snapshot Snap = MetricsRegistry::global().snapshot();

  // Checks, made apart from the compiler's own result.
  std::string Error;
  if (!R || !SS) {
    Error = "compilation failed";
  } else if (Cuda.empty()) {
    Error = "empty CUDA source";
  } else if (!(R->SchedStats.FinalII >= R->SchedStats.MII * (1 - 1e-12)) ||
             !(R->SchedStats.FinalII <= 4.0 * R->SchedStats.MII)) {
    Error = "II outside [MII, 4 MII]";
  } else if (std::optional<std::string> Bad = verifySchedule(
                 G, *SS, R->Config, R->GSS, R->Schedule,
                 *Machine == MachineMode::Hybrid ? &R->MachineDesc
                                                 : nullptr)) {
    Error = "verifier: " + *Bad;
  } else {
    SwpFunctionalSim Sim(G, *SS, R->Config, R->GSS, R->Schedule, &R->Schema);
    std::vector<Scalar> Input =
        bench::makeBenchmarkInput(*Spec, Sim.inputTokensNeeded(1), Seed);
    if (std::optional<std::string> Bad = checkScheduleAgainstReference(
            G, *SS, R->Config, R->GSS, R->Schedule, Input, 1, &R->Schema))
      Error = "functional: " + *Bad;
  }

  auto Count = [&Snap](const char *Name) {
    auto It = Snap.Counters.find(Name);
    return It == Snap.Counters.end() ? int64_t(0) : It->second;
  };
  JsonWriter W;
  W.beginObject();
  W.writeString("program", Program);
  W.writeString("machine", machineModeName(*Machine));
  W.writeBool("ok", Error.empty());
  W.writeString("error", Error);
  W.writeDouble("compile_s", CompileS);
  W.writeDouble("rss_mib", RssMib);
  if (R) {
    W.writeDouble("ii", R->SchedStats.FinalII);
    W.writeDouble("mii", R->SchedStats.MII);
    W.writeDouble("speedup", R->Speedup);
    W.writeInt("buffer_bytes", R->BufferBytes);
  }
  W.writeInt("bnb_nodes", Count("bnb.nodes_solved"));
  W.writeInt("pivots", Count("simplex.pivots"));
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return 0;
}

RunResult runTableOne(const RunArgs &A, TimingModelKind Timing) {
  RunResult Res;

  // Set-up: the warm-up spawn, repeated; setup_s is the median.
  std::vector<double> Setups;
  for (int I = 0; I < kSetupRepeats; ++I) {
    double T0 = nowSeconds();
    std::optional<CompileOutcome> O =
        spawnCompile(kWarmUpProgram, MachineMode::Gpu, Timing, A.Seed);
    Setups.push_back(nowSeconds() - T0);
    if (!O || !O->Ok) {
      Res.wrong("warm-up compile failed");
      return Res;
    }
  }

  const std::vector<std::string> Programs = tableOnePrograms();
  std::vector<double> RoundCompileS, RoundSpeedup, RoundRatio, RoundBuffer,
      RoundRss, RepeatMs;
  double Start = nowSeconds();
  for (int Round = 0; Round < 2 || nowSeconds() - Start < A.Seconds;
       ++Round) {
    std::vector<double> Ms, Speedups, Ratios;
    double BufferBytes = 0.0, Rss = 0.0;
    std::map<std::string, double> GpuSpeedup;
    for (const std::string &P : Programs)
      for (MachineMode M : {MachineMode::Gpu, MachineMode::Hybrid}) {
        ++Res.Attempted;
        std::optional<CompileOutcome> O = spawnCompile(P, M, Timing, A.Seed);
        std::string Name = P + "/" + machineModeName(M);
        if (!O) {
          ++Res.Failed;
          Res.wrong(Name + ": compile process failed");
          continue;
        }
        if (!O->Ok) {
          ++Res.Failed;
          Res.wrong(Name + ": " + O->Error);
        } else if (M == MachineMode::Hybrid &&
                   O->Speedup < GpuSpeedup[P]) {
          // The hybrid machine must never ship a schedule slower than
          // the GPU-only one it claims to beat.
          ++Res.Failed;
          if (P != kKnownSlowHybrid)
            Res.wrong(Name + ": hybrid slower than gpu");
        }
        if (M == MachineMode::Gpu)
          GpuSpeedup[P] = O->Speedup;
        Ms.push_back(O->CompileS * 1e3);
        Speedups.push_back(O->Speedup);
        Ratios.push_back(O->MII > 0 ? O->II / O->MII : 0.0);
        BufferBytes += O->BufferBytes;
        Rss = std::max(Rss, O->RssMib);
        if (Round == 0)
          std::fprintf(stderr,
                       "perfbench: %-18s compile %8.1f ms  II/MII %.4f  "
                       "speedup %7.3fx  buffers %10.0f B  rss %6.1f MiB  "
                       "bnb %5.0f  pivots %7.0f\n",
                       Name.c_str(), O->CompileS * 1e3, Ratios.back(),
                       O->Speedup, O->BufferBytes, O->RssMib, O->BnbNodes,
                       O->Pivots);
      }
    if (Ms.size() != 2 * Programs.size())
      return Res;
    double SumMs = 0.0;
    for (double X : Ms)
      SumMs += X;
    RoundCompileS.push_back(SumMs / 1e3);
    RoundSpeedup.push_back(geomean(Speedups));
    RoundRatio.push_back(geomean(Ratios));
    RoundBuffer.push_back(BufferBytes / (1024.0 * 1024.0));
    RoundRss.push_back(Rss);
    std::fprintf(stderr, "perfbench: round %d: compile_s %.4f\n", Round,
                 SumMs / 1e3);
    // The CLI keeps no schedule cache, so a repeat costs a full compile.
    if (Round > 0)
      RepeatMs.push_back(SumMs / double(Ms.size()));
  }

  Res.add("setup_s", median(Setups), "s");
  Res.add("compile_s", median(RoundCompileS), "s");
  Res.add("speedup_geomean", median(RoundSpeedup), "x");
  Res.add("ii_over_mii_geomean", median(RoundRatio), "ratio");
  Res.add("buffer_mib", median(RoundBuffer), "MiB");
  Res.add("peak_rss_mib", median(RoundRss), "MiB");
  Res.add("repeat_ms", median(RepeatMs), "ms");
  return Res;
}

} // namespace perfbench
} // namespace sgpu
