//===- perfbench/Traced.cpp - Per-layer traced runs -----------------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
//
// The --trace 1 runs. They are separate from the timed runs: in this
// process they replay each compile stage by stage through the public
// functions compileForGpu calls, timing every call, and read the
// program's own counters from MetricsRegistry. The replayed II must
// equal compileForGpu's, so a drift between the pipeline and this
// replay fails loudly instead of being charged to the wrong layer.
//
// Served-graphgen additionally times the request path (protocol parse,
// .str parse, flatten, graph hash, cache lookup/insert, report JSON)
// and Service::handleLine on cache hits, and compares the latter with
// what a client of the real daemon sees over its socket.
//
//===----------------------------------------------------------------------===//

#include "Served.h"

#include "benchmarks/Registry.h"
#include "codegen/schema/SchemaSelect.h"
#include "core/ReportWriter.h"
#include "parser/Parser.h"
#include "profile/Profiler.h"
#include "service/GraphHash.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "support/Metrics.h"
#include "support/Rng.h"

#include <cstdio>
#include <map>

namespace sgpu {
namespace perfbench {

namespace {

/// The per-layer metrics, in report order, with their units.
const std::vector<std::pair<const char *, const char *>> &layerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"ilp.bnb_nodes", "count"},
      {"ilp.lp_solves", "count"},
      {"ilp.pivots", "count"},
      {"ilp.busy_s", "s"},
      {"core.schedule_s", "s"},
      {"core.ii_candidates", "count"},
      {"core.ilp_shipped", "count"},
      {"profile.sweep_s", "s"},
      {"profile.cells", "count"},
      {"profile.select_s", "s"},
      {"gpusim.kernel_sim_s", "s"},
      {"gpusim.transactions", "count"},
      {"codegen.schema_select_s", "s"},
      {"codegen.warp_selected", "count"},
      {"codegen.emit_s", "s"},
      {"codegen.bytes", "B"},
      {"sdf.steady_state_s", "s"},
      {"core.unattributed_s", "s"},
      {"core.compile_s", "s"},
      {"parser.parse_s", "s"},
      {"ir.flatten_s", "s"},
      {"service.request_parse_s", "s"},
      {"service.graph_hash_s", "s"},
      {"service.cache_lookup_s", "s"},
      {"service.cache_insert_s", "s"},
      {"service.report_json_s", "s"},
      {"server.overhead_ms", "ms"},
      {"trace.wall_ratio", "ratio"},
  };
  return M;
}

using Layers = std::map<std::string, double>;

/// Times one call into a layer and charges it to \p Name.
template <typename Fn> auto timed(Layers &L, const char *Name, Fn &&F) {
  double T0 = nowSeconds();
  auto Result = F();
  L[Name] += nowSeconds() - T0;
  return Result;
}

/// The layers the replay times; core.unattributed_s is the rest.
constexpr const char *kReplayStages[] = {
    "sdf.steady_state_s",      "profile.sweep_s",     "profile.select_s",
    "core.schedule_s",         "codegen.schema_select_s",
    "gpusim.kernel_sim_s",     "codegen.emit_s"};

/// Replays compileForGpu's SWP path for \p G under \p O, one timed call
/// per stage, and charges the program's counters to their layers.
/// Returns the final II, or std::nullopt when a stage fails.
std::optional<double> replayCompile(const StreamGraph &G,
                                    const CompileOptions &O, bool Emit,
                                    Layers &L) {
  double StagesBefore = 0.0;
  for (const char *S : kReplayStages)
    StagesBefore += L[S];
  MetricsRegistry::global().reset();
  double Start = nowSeconds();

  std::optional<SteadyState> SS = timed(
      L, "sdf.steady_state_s", [&] { return SteadyState::compute(G); });
  if (!SS)
    return std::nullopt;
  std::unique_ptr<TimingModel> Model =
      createTimingModel(O.Timing, O.Arch, O.WarpSched);
  LayoutKind Layout = layoutFor(O.Strat);
  ProfileTable PT = timed(L, "profile.sweep_s", [&] {
    return profileGraph(O.Arch, G, Layout, O.Sched.NumWorkers,
                        /*NumFirings=*/0, Model.get());
  });
  std::optional<ExecutionConfig> Config = timed(
      L, "profile.select_s", [&] { return selectExecutionConfig(*SS, PT); });
  if (!Config)
    return std::nullopt;
  GpuSteadyState GSS = computeGpuSteadyState(SS->repetitions(),
                                             Config->Threads);

  SchedulerOptions SO = O.Sched;
  SO.Pmax = std::min(SO.Pmax, O.Arch.NumSMs);
  MachineModel Machine;
  const MachineModel *MachinePtr = nullptr;
  if (O.Machine == MachineMode::Hybrid) {
    Machine = MachineModel::hybrid(O.Arch, SO.Pmax, O.Cpu, O.Coarsening);
    computeCpuDelays(*Config, G, O.Cpu, O.Arch);
    SO.Pmax = Machine.totalProcs();
    MachinePtr = &Machine;
  }
  std::optional<ScheduleResult> SR = timed(L, "core.schedule_s", [&] {
    return scheduleSwp(G, *SS, *Config, GSS, SO, MachinePtr);
  });
  if (!SR)
    return std::nullopt;
  L["core.ilp_shipped"] += SR->UsedIlp ? 1 : 0;

  int Coarsening = O.Coarsening;
  if (MachinePtr && !SR->Schedule.ClassCoarsening.empty()) {
    int64_t C = SR->Schedule.ClassCoarsening[0];
    for (int64_t V : SR->Schedule.ClassCoarsening)
      C = std::min(C, V);
    Coarsening = static_cast<int>(std::max<int64_t>(1, C));
  }

  SchemaAssignment Schema;
  Schema.Edges.assign(G.numEdges(), EdgeSchema::GlobalChannel);
  Schema.QueueCapTokens.assign(G.numEdges(), 0);
  auto Simulate = [&](const SchemaAssignment *S) {
    return timed(L, "gpusim.kernel_sim_s", [&] {
      return Model->simulateKernel(
          buildSwpKernelDesc(O.Arch, G, *Config, SR->Schedule, Layout,
                             Coarsening, S, MachinePtr));
    });
  };
  if (O.Schema != SchemaMode::Global) {
    SchemaAssignment Warp = timed(L, "codegen.schema_select_s", [&] {
      return selectSchemaAssignment(O.Arch, G, *SS, *Config, GSS,
                                    SR->Schedule, SchemaKind::WarpSpecialized,
                                    Coarsening, MachinePtr);
    });
    if (O.Schema == SchemaMode::Warp ||
        (Warp.numQueueEdges() > 0 &&
         Simulate(&Warp).TotalCycles < Simulate(nullptr).TotalCycles))
      Schema = std::move(Warp);
    if (Schema.Kind == SchemaKind::WarpSpecialized)
      L["codegen.warp_selected"] += 1;
  }
  KernelSimResult Sim = Simulate(&Schema);
  L["gpusim.transactions"] += Sim.Transactions;

  if (Emit) {
    CudaEmitOptions EO;
    EO.Layout = Layout;
    EO.Coarsening = Coarsening;
    std::string Cuda = timed(L, "codegen.emit_s", [&] {
      return createKernelSchema(Schema.Kind)
          ->emit(G, *SS, *Config, GSS, SR->Schedule, Schema, EO);
    });
    L["codegen.bytes"] += double(Cuda.size());
  }

  double Wall = nowSeconds() - Start;
  double Stages = -StagesBefore;
  for (const char *S : kReplayStages)
    Stages += L[S];
  L["core.unattributed_s"] += std::max(0.0, Wall - Stages);
  L["trace.replay_s"] += Wall;

  MetricsRegistry::Snapshot Snap = MetricsRegistry::global().snapshot();
  auto Count = [&Snap](const char *Name) {
    auto It = Snap.Counters.find(Name);
    return It == Snap.Counters.end() ? 0.0 : double(It->second);
  };
  L["ilp.bnb_nodes"] += Count("bnb.nodes_solved");
  L["ilp.lp_solves"] += Count("simplex.lp_solves");
  L["ilp.pivots"] += Count("simplex.pivots");
  L["core.ii_candidates"] += Count("scheduler.ii_candidates");
  L["profile.cells"] += Count("profile.cells");
  auto Busy = Snap.Histograms.find("bnb.busy.seconds");
  if (Busy != Snap.Histograms.end())
    L["ilp.busy_s"] += Busy->second.Sum;
  return SR->FinalII;
}

RunResult finish(RunResult Res, Layers &L) {
  for (const auto &[Name, Unit] : layerMetrics())
    Res.add(Name, L[Name], Unit);
  return Res;
}

} // namespace

RunResult traceTableOne(const RunArgs &A, TimingModelKind Timing) {
  (void)A; // The Table I programs are fixed; the seed only feeds checks.
  RunResult Res;
  Layers L;
  double Untraced = 0.0;
  for (const std::string &P : tableOnePrograms()) {
    std::map<MachineMode, double> Speedup;
    for (MachineMode M : {MachineMode::Gpu, MachineMode::Hybrid}) {
      ++Res.Attempted;
      const std::string Name = P + "/" + machineModeName(M);
      StreamGraph G = flatten(*bench::findBenchmark(P)->Build());
      CompileOptions O = tableOneOptions(M, Timing);

      // The untraced compile, as the timed run's child makes it.
      double T0 = nowSeconds();
      std::optional<CompileReport> R = compileForGpu(G, O);
      if (R) {
        std::optional<SteadyState> SS = SteadyState::compute(G);
        CudaEmitOptions EO;
        EO.Layout = R->Layout;
        EO.Coarsening = R->Coarsening;
        createKernelSchema(R->Schema.Kind)
            ->emit(G, *SS, R->Config, R->GSS, R->Schedule, R->Schema, EO);
      }
      double Wall = nowSeconds() - T0;
      Untraced += Wall;
      L["core.compile_s"] += Wall;

      std::optional<double> II = replayCompile(G, O, /*Emit=*/true, L);
      if (!R || !II || *II != R->SchedStats.FinalII) {
        ++Res.Failed;
        Res.wrong(Name + ": replayed II differs from compileForGpu's");
        continue;
      }
      Speedup[M] = R->Speedup;
      if (M == MachineMode::Hybrid &&
          R->Speedup < Speedup[MachineMode::Gpu]) {
        ++Res.Failed; // The same rule, and fault, as the timed run.
        if (P != kKnownSlowHybrid)
          Res.wrong(Name + ": hybrid slower than gpu");
      }
    }
  }
  L["trace.wall_ratio"] = L["trace.replay_s"] / Untraced;
  std::fprintf(stderr, "perfbench: traced %.3f s, untraced %.3f s\n",
               L["trace.replay_s"], Untraced);
  return finish(std::move(Res), L);
}

RunResult traceServed(const RunArgs &A) {
  RunResult Res;
  Layers L;
  Corpus C = makeCorpus();
  if (!C.Error.empty()) {
    Res.wrong(C.Error);
    return Res;
  }
  const std::string Dir = runDir("trace");
  removeTree(Dir);
  service::ScheduleCache::Options CacheOpts;
  CacheOpts.Dir = Dir + "/cache";
  service::ScheduleCache Cache(CacheOpts);
  auto Line = [&C](int Prog) {
    return "{\"id\":\"t\"," + C.Programs[Prog].Body + "}";
  };

  // The request path up to the cache, as Service::handleLine walks it.
  auto Front = [&](const std::string &Text, StreamGraph *G,
                   CompileOptions *Opts) -> std::optional<std::string> {
    std::optional<service::CompileRequest> Req =
        timed(L, "service.request_parse_s",
              [&] { return service::parseCompileRequest(Text, nullptr); });
    if (!Req)
      return std::nullopt;
    StreamPtr Parsed = timed(L, "parser.parse_s", [&] {
      return parseStreamProgram(Req->Source, nullptr);
    });
    if (!Parsed)
      return std::nullopt;
    *G = timed(L, "ir.flatten_s", [&] { return flatten(*Parsed); });
    *Opts = Req->Options;
    return timed(L, "service.graph_hash_s",
                 [&] { return service::graphHash(*G, Req->Options); });
  };

  // Misses: every distinct program once, compiled as a daemon solve.
  for (size_t K = 0; K < C.Keys.size(); ++K) {
    ++Res.Attempted;
    StreamGraph G;
    CompileOptions O;
    std::optional<std::string> Key = Front(Line(C.FirstOfKey[K]), &G, &O);
    bool Cached = Key && timed(L, "service.cache_lookup_s", [&] {
                           return Cache.lookup(*Key);
                         }).has_value();
    if (!Key || *Key != C.Keys[K] || Cached) {
      ++Res.Failed;
      Res.wrong("request path disagrees on key " + C.Keys[K]);
      continue;
    }
    O.Sched.NumWorkers = 1;
    O.Sched.IIWindow = 1;
    double T0 = nowSeconds();
    std::optional<CompileReport> R = compileForGpu(G, O);
    L["core.compile_s"] += nowSeconds() - T0;
    std::optional<double> II = replayCompile(G, O, /*Emit=*/false, L);
    if (!R || !II || *II != R->SchedStats.FinalII) {
      ++Res.Failed;
      Res.wrong("key " + C.Keys[K] + ": replayed II differs");
      continue;
    }
    std::string Report = timed(L, "service.report_json_s",
                               [&] { return reportToJson(G, *R); });
    timed(L, "service.cache_insert_s", [&] {
      Cache.insert(*Key, Report);
      return 0;
    });
  }

  // Hits: one warm pass of seeded repeats through the same path.
  constexpr int kHits = 2000;
  Rng Pick(A.Seed * 0x9e3779b97f4a7c15ull);
  std::vector<std::string> Lines;
  for (int I = 0; I < kHits; ++I)
    Lines.push_back(Line(static_cast<int>(Pick.nextInt(kCorpusPrograms))));
  std::vector<double> TracedMs;
  for (const std::string &Text : Lines) {
    ++Res.Attempted;
    double T0 = nowSeconds();
    StreamGraph G;
    CompileOptions O;
    std::optional<std::string> Key = Front(Text, &G, &O);
    bool Hit = Key && timed(L, "service.cache_lookup_s", [&] {
                        return Cache.lookup(*Key);
                      }).has_value();
    TracedMs.push_back((nowSeconds() - T0) * 1e3);
    if (!Hit) {
      ++Res.Failed;
      Res.wrong("a repeat missed the cache");
    }
  }

  // Service::handleLine in this process, against the real daemon seen
  // through its socket; both serve the cache entries written above.
  service::ServiceOptions SvcOpts;
  SvcOpts.Cache = CacheOpts;
  SvcOpts.Workers = 2;
  std::vector<double> HandleMs, ClientMs;
  {
    service::Service Svc(SvcOpts);
    for (int Pass = 0; Pass < 2; ++Pass) // The first pass loads the disk.
      for (const std::string &Text : Lines) {
        double T0 = nowSeconds();
        std::string Response = Svc.handleLine(Text);
        if (Pass == 1)
          HandleMs.push_back((nowSeconds() - T0) * 1e3);
        if (Response.find("\"cache\":\"hit\"") == std::string::npos)
          Res.wrong("in-process service missed the cache");
      }
  }
  removeTree(Dir); // Cache keeps its entries in memory.
  ServedDaemon D;
  std::string Err;
  std::string DaemonDir = runDir("trace-daemon");
  if (!D.start(DaemonDir, &Err)) {
    Res.wrong(Err);
    return Res;
  }
  // Hand the daemon the same entries through its disk tier.
  {
    service::ScheduleCache::Options Opts;
    Opts.Dir = DaemonDir + "/cache";
    service::ScheduleCache Seeded(Opts);
    for (const std::string &Key : C.Keys)
      if (std::optional<std::string> V = Cache.lookup(Key))
        Seeded.insert(Key, *V);
  }
  Client Conn;
  if (!Conn.connect(D.socket())) {
    Res.wrong("cannot connect to the daemon");
    return Res;
  }
  for (int Pass = 0; Pass < 2; ++Pass)
    for (const std::string &Text : Lines) {
      std::string Response;
      double T0 = nowSeconds();
      bool Ok = Conn.roundTrip(Text, &Response);
      if (Pass == 1)
        ClientMs.push_back((nowSeconds() - T0) * 1e3);
      if (!Ok || Response.find("\"cache\":\"hit\"") == std::string::npos)
        Res.wrong("daemon missed the seeded cache");
    }
  if (!D.stop())
    Res.wrong("daemon did not shut down cleanly");

  double HandleP50 = percentile(HandleMs, 0.5);
  L["server.overhead_ms"] = percentile(ClientMs, 0.5) - HandleP50;
  L["trace.wall_ratio"] = percentile(TracedMs, 0.5) / HandleP50;
  std::fprintf(stderr,
               "perfbench: hit p50: client %.4f ms, handleLine %.4f ms, "
               "traced path %.4f ms\n",
               percentile(ClientMs, 0.5), HandleP50,
               percentile(TracedMs, 0.5));
  return finish(std::move(Res), L);
}

} // namespace perfbench
} // namespace sgpu
