//===- perfbench/Served.cpp - GraphGen traffic against sgpu-served --------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
//
// The served-graphgen workload. A seeded GraphGen corpus is printed to
// `.str` and sent as inline-source requests to a real sgpu-served
// daemon (2 compile workers, a fresh Unix socket and an empty cache
// directory per run) over 2 connections in a closed loop:
//
//   cold pass   each distinct cache key once: parse, hash, compile,
//               cache insert to memory and disk;
//   warm passes kWarmPassRequests seeded draws over the whole corpus:
//               parse, hash, cache lookup. Each must answer "hit" with
//               the report byte-identical to the key's first answer.
//
// After the timed part every distinct program is compiled again
// directly with compileForGpu; the daemon's report must agree on II,
// speedup and buffer bytes, and the schedule must reproduce the
// sequential interpreter's output.
//
//===----------------------------------------------------------------------===//

#include "Served.h"

#include "gpusim/FunctionalSim.h"
#include "parser/Parser.h"
#include "service/GraphHash.h"
#include "service/Protocol.h"
#include "support/Json.h"
#include "testing/DslPrinter.h"
#include "testing/GraphGen.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <filesystem>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

namespace sgpu {
namespace perfbench {

namespace {

/// Client connections, and compile workers of the daemon.
constexpr int kConnections = 2;
/// Requests per warm pass.
constexpr int kWarmPassRequests = 2000;
constexpr int kMinWarmPasses = 3;
constexpr int kSetupRepeats = 3;

/// The request options of every corpus program: the deterministic
/// solver cut, everything else at the protocol's defaults.
std::string servedOptionsJson() {
  return "{\"max_ilp_nodes\":" + std::to_string(kMaxIlpNodes) +
         ",\"max_lp_iterations\":" + std::to_string(kMaxLpIterations) +
         ",\"time_budget_s\":" +
         std::to_string(static_cast<int>(kOutOfReachBudgetSeconds)) + "}";
}

} // namespace

Corpus makeCorpus() {
  Corpus C;
  uint64_t Next = 1;
  const std::string Options = servedOptionsJson();
  while (static_cast<int>(C.Programs.size()) < kCorpusPrograms) {
    testing::GraphSpec Spec = testing::generateGraphSpec(Next++);
    testing::DslPrintResult P = testing::printStreamDsl(
        *testing::buildStream(Spec));
    if (!P.Ok)
      continue; // The spec uses a construct the DSL cannot express.
    CorpusProgram Prog;
    Prog.Ty = Spec.Ty;
    Prog.Body = "\"source\":\"" + JsonWriter::escape(P.Text) +
                "\",\"options\":" + Options;
    std::string Err;
    std::optional<service::CompileRequest> Req =
        service::parseCompileRequest("{" + Prog.Body + "}", &Err);
    StreamPtr Parsed =
        Req ? parseStreamProgram(Req->Source, nullptr) : nullptr;
    if (!Parsed) {
      C.Error = "corpus program does not parse back: " + Err;
      return C;
    }
    std::string Key = service::graphHash(flatten(*Parsed), Req->Options);
    auto It = std::find(C.Keys.begin(), C.Keys.end(), Key);
    Prog.KeyIdx = static_cast<int>(It - C.Keys.begin());
    if (It == C.Keys.end()) {
      C.Keys.push_back(Key);
      C.FirstOfKey.push_back(static_cast<int>(C.Programs.size()));
    }
    C.Programs.push_back(std::move(Prog));
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Line-framed Unix-socket client
//===----------------------------------------------------------------------===//

Client::~Client() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Client::connect(const std::string &Path) {
  Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return false;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memcpy(Addr.sun_path, Path.data(), Path.size());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    Fd = -1;
    return false;
  }
  return true;
}

bool Client::roundTrip(const std::string &Line, std::string *Response) {
  std::string Framed = Line + "\n";
  size_t Off = 0;
  while (Off < Framed.size()) {
    ssize_t N = ::send(Fd, Framed.data() + Off, Framed.size() - Off, 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  size_t Nl;
  while ((Nl = Buf.find('\n')) == std::string::npos) {
    char Chunk[65536];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
  Response->assign(Buf, 0, Nl);
  Buf.erase(0, Nl + 1);
  return true;
}

bool ServedDaemon::start(const std::string &RunDir, std::string *Err) {
  Dir = RunDir;
  removeTree(Dir);
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    *Err = "cannot create " + Dir;
    return false;
  }
  Socket = Dir + "/sgpu-served.sock";
  std::string Exe =
      std::filesystem::path(selfExe()).parent_path().string() +
      "/tools/sgpu-served";
  Pid = spawnLogged({Exe, "--unix=" + Socket, "--cache-dir=" + Dir + "/cache",
                     "--jobs=" + std::to_string(kConnections)},
                    Dir + "/daemon.log");
  if (Pid < 0) {
    *Err = "cannot start " + Exe;
    return false;
  }
  // Answering means: a request frame gets a response frame.
  double Deadline = nowSeconds() + 30.0;
  while (nowSeconds() < Deadline) {
    Client C;
    std::string Response;
    if (C.connect(Socket) && C.roundTrip("{}", &Response)) {
      if (Response.find("\"status\":\"error\"") != std::string::npos)
        return true;
      *Err = "unexpected answer to an empty request: " + Response;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *Err = "daemon did not answer within 30 s";
  return false;
}

bool ServedDaemon::stop() {
  if (Pid < 0)
    return false;
  ::kill(Pid, SIGTERM);
  bool Ok = waitOk(Pid);
  Pid = -1;
  removeTree(Dir);
  return Ok;
}

namespace {

/// The report JSON embedded in an ok response, or "".
std::string reportOf(const std::string &Response) {
  // makeOkResponse writes the report last: {..., "report":<report>}.
  static const std::string Tag = "\"report\":";
  size_t At = Response.find(Tag);
  if (At == std::string::npos || Response.empty() || Response.back() != '}')
    return std::string();
  At += Tag.size();
  return Response.substr(At, Response.size() - 1 - At);
}

using Connections = std::array<Client, kConnections>;

/// Sends \p Lines over the connections, each sending its next line
/// only after the previous answer. \p Check runs per answer outside the
/// timed window; false counts the request as failed.
template <typename CheckFn>
bool closedLoop(Connections &Conns, const std::vector<std::string> &Lines,
                std::vector<double> &Ms, std::atomic<int64_t> &Failed,
                CheckFn Check) {
  Ms.assign(Lines.size(), 0.0);
  std::atomic<size_t> Next{0};
  std::atomic<bool> Broken{false};
  auto Worker = [&](Client &C) {
    std::string Response;
    for (size_t I; (I = Next.fetch_add(1)) < Lines.size();) {
      double T0 = nowSeconds();
      bool Ok = C.roundTrip(Lines[I], &Response);
      Ms[I] = (nowSeconds() - T0) * 1e3;
      if (!Ok) {
        Broken = true;
        return;
      }
      if (!Check(I, Response))
        ++Failed;
    }
  };
  std::vector<std::thread> Threads;
  for (Client &C : Conns)
    Threads.emplace_back(Worker, std::ref(C));
  for (std::thread &T : Threads)
    T.join();
  return !Broken;
}

double numberAt(const JsonValue &Doc, const char *Obj, const char *Key) {
  const JsonValue *O = Doc.find(Obj);
  const JsonValue *V = O ? O->find(Key) : nullptr;
  return V && V->isNumber() ? V->asNumber() : std::nan("");
}

bool near(double A, double B) {
  return std::fabs(A - B) <= 1e-9 * std::max(std::fabs(A), std::fabs(B));
}

/// The compile the daemon makes for \p Body, made here instead: same
/// request parsing, single worker and serial II search like a solve.
std::optional<CompileReport> directCompile(const std::string &Body,
                                           StreamGraph *GOut) {
  std::optional<service::CompileRequest> Req =
      service::parseCompileRequest("{" + Body + "}", nullptr);
  if (!Req)
    return std::nullopt;
  StreamPtr Parsed = parseStreamProgram(Req->Source, nullptr);
  if (!Parsed)
    return std::nullopt;
  *GOut = flatten(*Parsed);
  CompileOptions O = Req->Options;
  O.Sched.NumWorkers = 1;
  O.Sched.IIWindow = 1;
  return compileForGpu(*GOut, O);
}

/// Compares one distinct program's daemon report with a direct compile
/// and runs that compile's schedule against the interpreter. Returns
/// the first disagreement, or "".
std::string verifyProgram(const CorpusProgram &Prog, const std::string &Report,
                          uint64_t InputSeed) {
  std::optional<JsonValue> Doc = JsonValue::parse(Report);
  if (!Doc || !Doc->isObject())
    return "report is not JSON";
  StreamGraph G;
  std::optional<CompileReport> R = directCompile(Prog.Body, &G);
  if (!R)
    return "direct compile failed";
  if (!near(numberAt(*Doc, "scheduling", "final_ii"), R->SchedStats.FinalII))
    return "II differs from a direct compile";
  if (!near(numberAt(*Doc, "metrics", "speedup"), R->Speedup))
    return "speedup differs from a direct compile";
  if (!near(numberAt(*Doc, "metrics", "buffer_bytes"),
            double(R->BufferBytes)))
    return "buffer bytes differ from a direct compile";
  std::optional<SteadyState> SS = SteadyState::compute(G);
  if (!SS)
    return "no steady state";
  SwpFunctionalSim Sim(G, *SS, R->Config, R->GSS, R->Schedule, &R->Schema);
  Rng InRng(InputSeed);
  std::vector<Scalar> Input =
      testing::randomInput(InRng, Prog.Ty, Sim.inputTokensNeeded(1));
  if (std::optional<std::string> Bad = checkScheduleAgainstReference(
          G, *SS, R->Config, R->GSS, R->Schedule, Input, 1, &R->Schema))
    return "functional: " + *Bad;
  return std::string();
}

/// Checks each distinct program's daemon report (\p Reports, by key)
/// against a direct compile and that compile's schedule against the
/// interpreter; returns one error string per key ("" when it agrees).
std::vector<std::string> verifyCorpus(const Corpus &C,
                                      const std::vector<std::string> &Reports,
                                      uint64_t Seed) {
  std::vector<std::string> Errors(C.Keys.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t K; (K = Next.fetch_add(1)) < C.Keys.size();)
      Errors[K] = verifyProgram(C.Programs[C.FirstOfKey[K]], Reports[K],
                                Seed * 1000003ull + K);
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T < kConnections; ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
  return Errors;
}

} // namespace

std::string runDir(const std::string &Tag) {
  return ".bench_run/" + Tag + "-" + std::to_string(::getpid());
}

RunResult runServed(const RunArgs &A) {
  RunResult Res;

  // Set-up: daemon start until it answers, plus the corpus; repeated,
  // and the last daemon stays up for the timed part.
  std::vector<double> Setups;
  ServedDaemon D;
  Corpus C;
  for (int I = 0; I < kSetupRepeats; ++I) {
    double T0 = nowSeconds();
    std::string Err;
    if (I > 0 && !D.stop()) {
      Res.wrong("daemon did not shut down cleanly");
      return Res;
    }
    if (!D.start(runDir("served"), &Err)) {
      Res.wrong(Err);
      return Res;
    }
    C = makeCorpus();
    if (!C.Error.empty()) {
      Res.wrong(C.Error);
      return Res;
    }
    Setups.push_back(nowSeconds() - T0);
  }
  std::fprintf(stderr, "perfbench: corpus of %zu programs, %zu distinct "
               "keys\n", C.Programs.size(), C.Keys.size());

  auto Line = [&C](int Prog, const std::string &Id) {
    return "{\"id\":\"" + Id + "\"," + C.Programs[Prog].Body + "}";
  };

  // Cold pass: the first request of every distinct key, in corpus order.
  std::atomic<int64_t> Failed{0};
  std::vector<std::string> ColdLines;
  for (size_t K = 0; K < C.Keys.size(); ++K)
    ColdLines.push_back(Line(C.FirstOfKey[K], "c" + std::to_string(K)));
  std::vector<std::string> Reports(C.Keys.size());
  std::vector<double> ColdMs;
  Connections Conns;
  bool Alive = true;
  for (Client &Conn : Conns)
    Alive = Alive && Conn.connect(D.socket());
  double Start = nowSeconds();
  Alive = Alive && closedLoop(
      Conns, ColdLines, ColdMs, Failed,
      [&](size_t K, const std::string &Response) {
        Reports[K] = reportOf(Response);
        return Response.rfind("{\"status\":\"ok\"", 0) == 0 &&
               Response.find("\"key\":\"" + C.Keys[K] + "\"") !=
                   std::string::npos &&
               Response.find("\"cache\":\"miss\"") != std::string::npos &&
               !Reports[K].empty();
      });
  Res.Attempted += static_cast<int64_t>(ColdLines.size());
  std::fprintf(stderr, "perfbench: cold pass %.2f s wall\n",
               nowSeconds() - Start);

  // Warm passes: seeded repeats over the whole corpus.
  std::vector<double> PassP50, PassTail, PassRps;
  double RssMib = 0.0;
  for (int Pass = 0; Alive && (Pass < kMinWarmPasses ||
                               nowSeconds() - Start < A.Seconds);
       ++Pass) {
    Rng Pick(A.Seed * 0x9e3779b97f4a7c15ull + uint64_t(Pass));
    std::vector<int> Progs;
    std::vector<std::string> Lines;
    for (int I = 0; I < kWarmPassRequests; ++I) {
      Progs.push_back(static_cast<int>(Pick.nextInt(kCorpusPrograms)));
      Lines.push_back(Line(Progs.back(), "w" + std::to_string(I)));
    }
    std::vector<double> Ms;
    double T0 = nowSeconds();
    Alive = closedLoop(Conns, Lines, Ms, Failed,
                       [&](size_t I, const std::string &Response) {
                         const std::string &First =
                             Reports[C.Programs[Progs[I]].KeyIdx];
                         return Response.rfind("{\"status\":\"ok\"", 0) ==
                                    0 &&
                                Response.find("\"cache\":\"hit\"") !=
                                    std::string::npos &&
                                !First.empty() && reportOf(Response) == First;
                       });
    double Wall = nowSeconds() - T0;
    Res.Attempted += kWarmPassRequests;
    PassP50.push_back(percentile(Ms, 0.5));
    PassTail.push_back(percentile(Ms, 0.99)); // 20 of 2000 samples beyond.
    PassRps.push_back(double(Ms.size()) / Wall);
    // The daemon's RSS keeps rising with every request it answers, so
    // its peak is read at a fixed point of the traffic.
    if (Pass + 1 == kMinWarmPasses)
      RssMib = processPeakRssMib(D.pid());
  }
  if (!Alive)
    Res.wrong("a connection to the daemon broke");
  if (!D.stop())
    Res.wrong("daemon did not shut down cleanly");
  Res.Failed = Failed.load();
  if (Res.Failed > 0)
    Res.wrong(std::to_string(Res.Failed) + " requests failed");

  // Correctness against compiles made outside the daemon.
  double VerifyStart = nowSeconds();
  std::vector<std::string> Errors = verifyCorpus(C, Reports, A.Seed);
  std::fprintf(stderr,
               "perfbench: %zu warm passes: hit p50 %.4f ms, p99 %.4f ms, "
               "%.0f hits/s (medians over passes); verified in %.2f s\n",
               PassP50.size(), median(PassP50), median(PassTail),
               median(PassRps), nowSeconds() - VerifyStart);
  std::vector<double> Speedups, Ratios;
  double BufferBytes = 0.0, ColdSum = 0.0;
  for (double Ms : ColdMs)
    ColdSum += Ms;
  for (size_t K = 0; K < C.Keys.size(); ++K) {
    if (!Errors[K].empty())
      Res.wrong("program " + std::to_string(C.FirstOfKey[K]) + ": " +
                Errors[K]);
    std::optional<JsonValue> Doc = JsonValue::parse(Reports[K]);
    if (!Doc)
      continue;
    double II = numberAt(*Doc, "scheduling", "final_ii");
    double MII = std::max(numberAt(*Doc, "scheduling", "res_mii"),
                          numberAt(*Doc, "scheduling", "rec_mii"));
    Speedups.push_back(numberAt(*Doc, "metrics", "speedup"));
    Ratios.push_back(II / MII);
    BufferBytes += numberAt(*Doc, "metrics", "buffer_bytes");
  }

  Res.add("setup_s", median(Setups), "s");
  Res.add("compile_s", ColdSum / 1e3, "s");
  Res.add("speedup_geomean", geomean(Speedups), "x");
  Res.add("ii_over_mii_geomean", geomean(Ratios), "ratio");
  Res.add("buffer_mib", BufferBytes / (1024.0 * 1024.0), "MiB");
  Res.add("peak_rss_mib", RssMib, "MiB");
  Res.add("repeat_ms", median(PassP50), "ms");
  return Res;
}

} // namespace perfbench
} // namespace sgpu
