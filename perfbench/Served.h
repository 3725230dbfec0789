//===- perfbench/Served.h - Pieces of the served workload -------*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GraphGen corpus, the socket client and the daemon handle shared
/// by the timed served-graphgen run and its traced run.
///
//===----------------------------------------------------------------------===//

#ifndef SGPU_PERFBENCH_SERVED_H
#define SGPU_PERFBENCH_SERVED_H

#include "Bench.h"

#include "ir/Type.h"

#include <string>
#include <vector>

namespace sgpu {
namespace perfbench {

/// Programs per corpus (some share a cache key).
inline constexpr int kCorpusPrograms = 200;

struct CorpusProgram {
  /// The request members after '{': "source" and "options".
  std::string Body;
  TokenType Ty = TokenType::Int;
  int KeyIdx = -1; ///< Index into Corpus::Keys.
};

struct Corpus {
  std::vector<CorpusProgram> Programs;
  std::vector<std::string> Keys;  ///< Distinct cache keys, first-seen order.
  std::vector<int> FirstOfKey;    ///< Per key: its first program.
  std::string Error;              ///< Set when the corpus is unusable.
};

/// The first kCorpusPrograms printable GraphGen programs (GraphGen
/// seeds 1, 2, ...). The run seed orders and repeats them; it does not
/// change which programs they are (README.md says why).
Corpus makeCorpus();

/// A line-framed Unix-socket client of the sgpu-served protocol.
class Client {
public:
  Client() = default;
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connect(const std::string &Path);
  /// Sends \p Line plus a newline and reads one response line.
  bool roundTrip(const std::string &Line, std::string *Response);

private:
  int Fd = -1;
  std::string Buf;
};

/// An sgpu-served process with a fresh socket and an empty cache
/// directory under \p RunDir, removed again by stop().
class ServedDaemon {
public:
  ServedDaemon() = default;
  ~ServedDaemon() { stop(); }
  ServedDaemon(const ServedDaemon &) = delete;
  ServedDaemon &operator=(const ServedDaemon &) = delete;

  /// Starts the daemon and waits until it answers a request.
  bool start(const std::string &RunDir, std::string *Err);
  /// SIGTERM, wait, remove the directory; true when the daemon exited
  /// with status 0.
  bool stop();
  const std::string &socket() const { return Socket; }
  pid_t pid() const { return Pid; }

private:
  std::string Dir, Socket;
  pid_t Pid = -1;
};

/// A per-process scratch directory below the checkout's .bench_run/.
std::string runDir(const std::string &Tag);

} // namespace perfbench
} // namespace sgpu

#endif // SGPU_PERFBENCH_SERVED_H
