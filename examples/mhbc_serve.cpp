// mhbc_serve — long-lived betweenness-estimation daemon.
//
//   mhbc_serve [--stdio | --port=<p>] [--dataset=<name>] [--graph=<name>=<file>]
//              [--sessions=<k>] [--workers=<k>] [--queue=<k>] [--threads=<k>]
//              [--spd-threads=<k>] [--max-line-bytes=<b>]
//
// Holds a catalog of named graphs, each with a pool of warm
// BetweennessEngine sessions, and serves estimate / rank / topk / mutate /
// stats over newline-delimited JSON (the byte-level protocol is specified
// in docs/serving.md). Two transports share the same executor
// (serve/server.h):
//
//   --stdio      one request line on stdin -> one response line on stdout;
//                exits cleanly at EOF. The transport tests and CI use this.
//   --port=<p>   TCP listener (default). One connection = one pipelined
//                NDJSON stream; `--port=0` picks an ephemeral port and
//                prints it. A dropped connection never takes the daemon
//                down (SIGPIPE is ignored; reads/writes fail per-socket).
//
// Catalog population (repeatable, combined freely):
//   --dataset=<name>        registry dataset (src/datasets/registry.h),
//                           e.g. caveman-36, email-like-1k, social-like-8k
//   --graph=<name>=<file>   any ingestion format (docs/formats.md); the
//                           largest component is extracted, as the
//                           estimators assume
// With neither, the daemon serves the registry dataset `caveman-36` so a
// bare `mhbc_serve --stdio` is immediately usable.
//
// Sizing:
//   --sessions=<k>        warm engines per graph = max concurrent readers
//                         of that graph (default 2)
//   --workers=<k>         executor threads (default 2)
//   --queue=<k>           admission queue capacity; a full queue rejects
//                         with the `overload` error class (default 64)
//   --threads=<k>         EngineOptions::num_threads per session: the
//                         source-parallel axis of the exact build and the
//                         RK credit batches; multi-vertex requests serve
//                         in order on one memo, and it never widens a pass
//                         (default 1; bit-identical results at every
//                         setting)
//   --spd-threads=<k>     frontier-/wave-parallel threads within each
//                         shortest-path pass (SpdOptions::num_threads;
//                         default 1, sequential — same bit-identical
//                         contract; use when single-query latency on a
//                         large graph matters more than CPU per request)
//   --max-line-bytes=<b>  request framing limit (default 1 MiB)
//
// Exit codes: 0 success (stdio EOF), 2 usage error, 3 I/O error (graph
// load or socket setup failed).

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "datasets/registry.h"
#include "graph/ingest.h"
#include "serve/catalog.h"
#include "serve/request_fields.h"
#include "serve/server.h"

namespace {

enum ExitCode : int { kExitOk = 0, kExitUsage = 2, kExitIo = 3 };

int UsageError(const std::string& message) {
  std::fprintf(stderr, "usage error: %s\n", message.c_str());
  return kExitUsage;
}

int IoError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return kExitIo;
}

struct ServeFlags {
  bool stdio = false;
  std::uint64_t port = 7077;
  std::uint64_t sessions = 2;
  std::uint64_t threads = 1;
  std::uint64_t spd_threads = 1;
  mhbc::serve::ServerOptions server;
  std::vector<std::string> datasets;
  /// --graph=<name>=<file> pairs.
  std::vector<std::pair<std::string, std::string>> files;
};

/// Parses one --flag=<count> through the shared validator; on failure
/// prints the usage error and returns false.
bool CountFlag(const std::string& arg, const std::string& prefix,
               std::uint64_t max, std::uint64_t* out, bool* failed) {
  if (arg.rfind(prefix, 0) != 0) return false;
  const auto parsed = mhbc::serve::ParseCountField(
      prefix.substr(0, prefix.size() - 1), arg.substr(prefix.size()), max);
  if (!parsed.ok()) {
    UsageError(parsed.status().message());
    *failed = true;
    return true;
  }
  *out = parsed.value();
  return true;
}

int RunStdio(mhbc::serve::Server& server) {
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string response = server.Call(line);
    std::fwrite(response.data(), 1, response.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
  return kExitOk;
}

/// One connection: NDJSON in, NDJSON out, until the peer closes.
void ServeConnection(mhbc::serve::Server* server, int fd) {
  std::string pending;
  char buffer[4096];
  for (;;) {
    const ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got <= 0) break;
    pending.append(buffer, static_cast<std::size_t>(got));
    std::size_t newline;
    while ((newline = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, newline);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      pending.erase(0, newline + 1);
      std::string response = server->Call(line);
      response.push_back('\n');
      std::size_t sent = 0;
      while (sent < response.size()) {
        const ssize_t wrote =
            ::write(fd, response.data() + sent, response.size() - sent);
        if (wrote <= 0) {
          ::close(fd);
          return;
        }
        sent += static_cast<std::size_t>(wrote);
      }
    }
  }
  ::close(fd);
}

int RunTcp(mhbc::serve::Server& server, std::uint64_t port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return IoError("socket() failed: " + std::string(std::strerror(errno)));
  const int reuse = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listener);
    return IoError("bind() failed: " + std::string(std::strerror(errno)));
  }
  if (::listen(listener, 16) != 0) {
    ::close(listener);
    return IoError("listen() failed: " + std::string(std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  std::printf("mhbc_serve listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(ntohs(addr.sin_port)));
  std::fflush(stdout);
  std::vector<std::thread> connections;
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    connections.emplace_back(ServeConnection, &server, fd);
  }
  ::close(listener);
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  ServeFlags flags;
  std::uint64_t queue = flags.server.queue_capacity;
  std::uint64_t workers = flags.server.workers;
  std::uint64_t max_line = flags.server.max_line_bytes;
  bool failed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stdio") {
      flags.stdio = true;
    } else if (CountFlag(arg, "--port=", 65535, &flags.port, &failed) ||
               CountFlag(arg, "--sessions=", 256, &flags.sessions, &failed) ||
               CountFlag(arg, "--workers=", mhbc::serve::kMaxThreadCount,
                         &workers, &failed) ||
               CountFlag(arg, "--queue=", std::uint64_t{1} << 20, &queue,
                         &failed) ||
               CountFlag(arg, "--threads=", mhbc::serve::kMaxThreadCount,
                         &flags.threads, &failed) ||
               CountFlag(arg, "--spd-threads=", mhbc::serve::kMaxThreadCount,
                         &flags.spd_threads, &failed) ||
               CountFlag(arg, "--max-line-bytes=", std::uint64_t{1} << 30,
                         &max_line, &failed)) {
      if (failed) return kExitUsage;
    } else if (arg.rfind("--dataset=", 0) == 0) {
      flags.datasets.push_back(arg.substr(std::string("--dataset=").size()));
    } else if (arg.rfind("--graph=", 0) == 0) {
      const std::string spec = arg.substr(std::string("--graph=").size());
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        return UsageError("--graph expects <name>=<file>, got '" + spec + "'");
      }
      flags.files.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      return UsageError(
          "unknown flag '" + arg +
          "' (flags: --stdio, --port=<p>, --dataset=<name>, "
          "--graph=<name>=<file>, --sessions=<k>, --workers=<k>, "
          "--queue=<k>, --threads=<k>, --spd-threads=<k>, "
          "--max-line-bytes=<b>)");
    }
  }
  if (flags.datasets.empty() && flags.files.empty()) {
    flags.datasets.push_back("caveman-36");
  }
  if (flags.sessions == 0) flags.sessions = 1;

  mhbc::EngineOptions engine_options;
  engine_options.num_threads = static_cast<unsigned>(flags.threads);
  engine_options.spd.num_threads = static_cast<unsigned>(flags.spd_threads);

  mhbc::serve::GraphCatalog catalog;
  for (const std::string& name : flags.datasets) {
    auto graph = mhbc::MakeDataset(name);
    if (!graph.ok()) return IoError(graph.status().ToString());
    const mhbc::Status added =
        catalog.AddGraph(name, std::move(graph).value(), engine_options,
                         flags.sessions);
    if (!added.ok()) return UsageError(added.message());
  }
  // Loaded sources are pinned for the daemon's lifetime: a snapshot-backed
  // GraphSource may be a zero-copy mmap view, and CsrGraph copies of a
  // view are views again (graph/csr_graph.h lifetime contract).
  std::vector<mhbc::GraphSource> pinned_sources;
  for (const auto& [name, path] : flags.files) {
    mhbc::IngestOptions ingest;
    ingest.largest_component_only = true;
    auto source = mhbc::OpenGraphSource(path, ingest);
    if (!source.ok()) return IoError(source.status().ToString());
    pinned_sources.push_back(std::move(source).value());
    const mhbc::Status added = catalog.AddGraph(
        name, pinned_sources.back().graph(), engine_options, flags.sessions);
    if (!added.ok()) return UsageError(added.message());
  }

  flags.server.queue_capacity = static_cast<std::size_t>(queue);
  flags.server.workers = static_cast<std::size_t>(workers);
  flags.server.max_line_bytes = static_cast<std::size_t>(max_line);
  mhbc::serve::Server server(&catalog, flags.server);

  if (flags.stdio) return RunStdio(server);
  std::signal(SIGPIPE, SIG_IGN);  // client disconnects must not kill us
  return RunTcp(server, flags.port);
}
