#include "orchestrate/process.hpp"

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

namespace mwsec::orchestrate {

std::string self_exe_path() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

namespace {

/// Bind a loopback socket to `port` (0: any) the way a TcpTransport
/// listener does, release it, and return the port bound (0 on failure).
std::uint16_t probe_port(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::uint16_t bound_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      bound_port = ntohs(bound.sin_port);
    }
  }
  ::close(fd);
  return bound_port;
}

/// The low end of the kernel's ephemeral port range (32768 when unknown).
unsigned ephemeral_low() {
  std::ifstream in("/proc/sys/net/ipv4/ip_local_port_range");
  unsigned low = 0;
  if (in >> low && low > 0) return low;
  return 32768;
}

}  // namespace

std::uint16_t pick_unused_port() {
  // Candidates lie in [low / 2, low), just below the ephemeral range that
  // starts at `low`. connect() takes its local port from that range, so
  // no outgoing connection can grab a candidate before its role binds it.
  // The cursor starts at a random offset and only moves forward, so one
  // plan never repeats a port and concurrent plans rarely meet.
  static const unsigned low = ephemeral_low();
  static std::atomic<unsigned> cursor{std::random_device{}()};
  const unsigned base = std::max(1024u, low / 2);
  if (low <= base) return probe_port(0);
  const unsigned span = low - base;
  for (unsigned attempt = 0; attempt < span; ++attempt) {
    const auto port = static_cast<std::uint16_t>(
        base + cursor.fetch_add(1, std::memory_order_relaxed) % span);
    if (probe_port(port) == port) return port;
  }
  return probe_port(0);
}

std::string encode_routes(const std::map<std::string, std::string>& routes) {
  std::string out;
  for (const auto& [name, addr] : routes) {
    if (!out.empty()) out += ',';
    out += name + '=' + addr;
  }
  return out;
}

std::map<std::string, std::string> decode_routes(const std::string& encoded) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < encoded.size()) {
    std::size_t comma = encoded.find(',', pos);
    if (comma == std::string::npos) comma = encoded.size();
    const std::string entry = encoded.substr(pos, comma - pos);
    const std::size_t eq = entry.find('=');
    if (eq != std::string::npos && eq > 0) {
      out[entry.substr(0, eq)] = entry.substr(eq + 1);
    }
    pos = comma + 1;
  }
  return out;
}

ProcessGroup::~ProcessGroup() {
  kill_all();
  // Reap so the kernel drops the zombies even if the caller never waited.
  for (Child& c : children_) {
    if (!c.exited && c.pid > 0) {
      int status = 0;
      ::waitpid(c.pid, &status, 0);
      c.exited = true;
    }
    if (c.stdout_fd >= 0) {
      ::close(c.stdout_fd);
      c.stdout_fd = -1;
    }
  }
}

mwsec::Result<std::size_t> ProcessGroup::spawn(
    const std::string& name, const std::string& exe,
    const std::vector<std::string>& args, bool capture_stdout) {
  int pipefd[2] = {-1, -1};
  if (capture_stdout && ::pipe(pipefd) != 0) {
    return Error::make("orchestrate: pipe() failed: " +
                           std::string(std::strerror(errno)),
                       "orchestrate");
  }

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    if (capture_stdout) {
      ::close(pipefd[0]);
      ::close(pipefd[1]);
    }
    return Error::make("orchestrate: fork() failed: " +
                           std::string(std::strerror(errno)),
                       "orchestrate");
  }
  if (pid == 0) {
    // Child: redirect stdout into the capture pipe, then become the role.
    if (capture_stdout) {
      ::dup2(pipefd[1], STDOUT_FILENO);
      ::close(pipefd[0]);
      ::close(pipefd[1]);
    }
    ::execv(exe.c_str(), argv.data());
    // Exec failed — nothing sensible to do but die distinctively.
    ::_exit(127);
  }

  if (capture_stdout) ::close(pipefd[1]);  // parent keeps the read end only
  Child c;
  c.name = name;
  c.pid = pid;
  c.stdout_fd = capture_stdout ? pipefd[0] : -1;
  children_.push_back(c);
  return children_.size() - 1;
}

void ProcessGroup::reap_nonblocking() {
  for (Child& c : children_) {
    if (c.exited || c.pid <= 0) continue;
    int status = 0;
    pid_t r = ::waitpid(c.pid, &status, WNOHANG);
    if (r != c.pid) continue;
    c.exited = true;
    if (WIFEXITED(status)) {
      c.exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      c.signaled = true;
      c.exit_code = 128 + WTERMSIG(status);
    }
  }
}

bool ProcessGroup::wait_all(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    reap_nonblocking();
    bool all = true;
    for (const Child& c : children_) {
      if (!c.exited) all = false;
    }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void ProcessGroup::kill_all() {
  reap_nonblocking();
  for (Child& c : children_) {
    if (!c.exited && c.pid > 0) ::kill(c.pid, SIGKILL);
  }
}

std::string ProcessGroup::drain_stdout(std::size_t index) {
  if (index >= children_.size()) return {};
  Child& c = children_[index];
  if (c.stdout_fd < 0) return {};
  std::string out;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(c.stdout_fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(c.stdout_fd);
  c.stdout_fd = -1;
  return out;
}

bool ProcessGroup::all_succeeded() const {
  for (const Child& c : children_) {
    if (!c.exited || c.exit_code != 0) return false;
  }
  return !children_.empty();
}

std::string ProcessGroup::failure_summary() const {
  std::string out;
  for (const Child& c : children_) {
    if (c.exited && c.exit_code == 0) continue;
    if (!out.empty()) out += ", ";
    if (!c.exited) {
      out += c.name + " still running";
    } else if (c.signaled) {
      out += c.name + " killed by signal " + std::to_string(c.exit_code - 128);
    } else {
      out += c.name + " exited " + std::to_string(c.exit_code);
    }
  }
  return out;
}

}  // namespace mwsec::orchestrate
