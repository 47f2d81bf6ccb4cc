#include "procs.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/check.h"
#include "support/strings.h"

namespace bfdn::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kStartTimeout = std::chrono::seconds(20);
constexpr auto kStopTimeout = std::chrono::seconds(20);
constexpr auto kPoll = std::chrono::milliseconds(2);

/// A complete "<port>\n" line, or 0 while the file is absent or still
/// being written.
std::uint16_t read_port_file(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.empty() || text.back() != '\n') return 0;
  const long port = std::strtol(text.c_str(), nullptr, 10);
  return port > 0 && port < 65536 ? static_cast<std::uint16_t>(port) : 0;
}

}  // namespace

Child::Child(std::vector<std::string> argv, const std::string& log_path,
             const std::string& port_file) {
  std::filesystem::remove(port_file);
  std::vector<char*> args;
  for (std::string& arg : argv) args.push_back(arg.data());
  args.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  BFDN_REQUIRE(log_fd >= 0, "cannot open " + log_path);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // The child must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  BFDN_REQUIRE(pid_ > 0, "fork failed");

  const auto deadline = Clock::now() + kStartTimeout;
  while (Clock::now() < deadline) {
    port_ = read_port_file(port_file);
    if (port_ != 0) return;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      BFDN_REQUIRE(false, argv[0] + " exited before listening; see " +
                              log_path);
    }
    std::this_thread::sleep_for(kPoll);
  }
  stop();
  BFDN_REQUIRE(false, argv[0] + " never wrote its port; see " + log_path);
}

Child::~Child() { stop(); }

Child::Child(Child&& other) noexcept : pid_(other.pid_), port_(other.port_) {
  other.pid_ = -1;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    stop();
    pid_ = other.pid_;
    port_ = other.port_;
    other.pid_ = -1;
  }
  return *this;
}

int Child::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  int result = -1;
  const auto deadline = Clock::now() + kStopTimeout;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      result = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      break;
    }
    if (done < 0 || Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(kPoll);
  }
  pid_ = -1;
  return result;
}

double process_cpu_seconds(pid_t pid) {
  std::ifstream in(str_format("/proc/%d/stat", static_cast<int>(pid)));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name start at field 3; utime
  // and stime are fields 14 and 15.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 1));
  std::string field;
  double ticks = 0;
  for (int index = 3; fields >> field && index <= 15; ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in(str_format("/proc/%d/status", static_cast<int>(pid)));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

Fleet::Fleet(const Topology& topology, const std::string& bin_dir,
             const std::string& dir)
    : topology_(topology), bin_dir_(bin_dir), dir_(dir) {
  std::filesystem::create_directories(dir_);
  std::vector<std::string> ports;
  for (std::int32_t s = 0; s < topology_.shards; ++s) {
    shards_.push_back(spawn_shard(static_cast<std::size_t>(s), 0));
    ports.push_back(str_format("%u", shards_.back().port()));
  }
  if (topology_.router) {
    router_ = Child({bin_dir_ + "/bfdn_route", "--port=0",
                     "--port-file=" + dir_ + "/route.port",
                     "--peers=" + join(ports, ","), "--fanout-threads=1"},
                    dir_ + "/route.log", dir_ + "/route.port");
  }
}

Fleet::~Fleet() { stop(); }

Child Fleet::spawn_shard(std::size_t shard, std::uint16_t port) {
  const std::string name = str_format("shard%zu", shard);
  std::vector<std::string> argv = {
      bin_dir_ + "/bfdn_serve",
      str_format("--port=%u", port),
      "--port-file=" + dir_ + "/" + name + ".port",
      str_format("--threads=%d", topology_.threads),
      str_format("--cache=%d", topology_.cache),
      "--queue=64"};
  if (topology_.store) {
    argv.push_back("--store-dir=" + dir_ + "/" + name + ".store");
  }
  return Child(std::move(argv), dir_ + "/" + name + ".log",
               dir_ + "/" + name + ".port");
}

std::uint16_t Fleet::entry_port() const {
  return has_router() ? router_.port() : shards_.front().port();
}

std::uint16_t Fleet::shard_port(std::size_t shard) const {
  return shards_.at(shard).port();
}

void Fleet::restart_shards() {
  std::vector<std::uint16_t> ports;
  for (Child& shard : shards_) {
    ports.push_back(shard.port());
    BFDN_REQUIRE(shard.stop() == 0, "a shard did not drain cleanly");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s] = spawn_shard(s, ports[s]);
  }
}

double Fleet::cpu_seconds() const {
  double total = has_router() ? process_cpu_seconds(router_.pid()) : 0;
  for (const Child& shard : shards_) total += process_cpu_seconds(shard.pid());
  return total;
}

double Fleet::peak_rss_mb() const {
  double total = has_router() ? process_peak_rss_mb(router_.pid()) : 0;
  for (const Child& shard : shards_) total += process_peak_rss_mb(shard.pid());
  return total;
}

bool Fleet::stop() {
  // Front to back, so the router never forwards to a stopped shard.
  bool clean = router_.stop() == 0;
  for (Child& shard : shards_) clean = shard.stop() == 0 && clean;
  return clean;
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace bfdn::bench
