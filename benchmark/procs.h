// The served fleet under test: bfdn_serve shards, optionally behind a
// bfdn_route front end, spawned as real child processes from the
// benchmark's own build. Every child is stopped (SIGTERM, then SIGKILL
// after a grace period) and reaped before the owning Fleet is gone, and
// dies with the benchmark if the benchmark dies first.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "plan.h"

namespace bfdn::bench {

/// One spawned process. Move-only; the destructor stops it.
class Child {
 public:
  Child() = default;
  /// Starts argv[0] with stdout and stderr appended to `log_path`, and
  /// waits until it has written its listening port to `port_file`.
  Child(std::vector<std::string> argv, const std::string& log_path,
        const std::string& port_file);
  ~Child();

  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// SIGTERM (the daemons drain and exit 0), wait, SIGKILL if it hangs.
  /// Returns the exit status, or -1 when it had to be killed.
  int stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// CPU seconds (user + system) the process has used so far.
double process_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM) in MiB.
double process_peak_rss_mb(pid_t pid);

class Fleet {
 public:
  /// Spawns the topology's shards (and router). `dir` holds logs, port
  /// files and store directories; it is created if missing.
  Fleet(const Topology& topology, const std::string& bin_dir,
        const std::string& dir);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Where clients connect: the router if there is one, else shard 0.
  std::uint16_t entry_port() const;
  std::uint16_t shard_port(std::size_t shard) const;
  std::size_t num_shards() const { return shards_.size(); }
  bool has_router() const { return router_.pid() > 0; }

  /// SIGTERMs every shard (each drains and flushes its store) and starts
  /// it again on the same port over the same store directory, so the
  /// router's ring still maps every key to the shard that stored it.
  void restart_shards();

  /// Sums over every live process of the fleet.
  double cpu_seconds() const;
  double peak_rss_mb() const;

  /// Stops everything; returns false when a process did not exit 0.
  bool stop();

 private:
  Child spawn_shard(std::size_t shard, std::uint16_t port);

  Topology topology_;
  std::string bin_dir_;
  std::string dir_;
  std::vector<Child> shards_;
  Child router_;
};

/// Removes a directory tree the benchmark created.
void remove_tree(const std::string& path);

}  // namespace bfdn::bench
