// A laminar_serve child process for tests that need the real binary: it
// listens on an ephemeral port and runs with --stdin-eof, its stdin held by
// this object, so the server cannot outlive the test. Tests take the
// binary's path from LAMINAR_SERVE_BIN, which ctest sets for the entries
// that need it.
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

namespace laminar {

class ServeProcess {
 public:
  /// Starts `bin --port 0 --stdin-eof <args...>` and reads the port from
  /// its banner; port() is 0 when the server did not come up.
  ServeProcess(const char* bin, const std::vector<std::string>& args) {
    int to_child[2];    // our writes -> child stdin
    int from_child[2];  // child stdout -> our reads
    if (pipe(to_child) != 0) return;
    if (pipe(from_child) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return;
    }
    std::vector<std::string> words = {bin, "--port", "0", "--stdin-eof"};
    words.insert(words.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& word : words) argv.push_back(word.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) {
      for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
        close(fd);
      }
      return;
    }
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      execv(bin, argv.data());
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    stdin_fd_ = to_child[1];
    // First stdout line: "laminar_serve listening on 127.0.0.1:<port>".
    std::string line;
    char ch;
    while (read(from_child[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
    close(from_child[0]);
    const size_t colon = line.rfind(':');
    if (colon != std::string::npos) {
      port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
    }
  }
  ~ServeProcess() {
    if (pid_ > 0) Kill();
    if (stdin_fd_ >= 0) close(stdin_fd_);
  }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  uint16_t port() const { return port_; }

  /// SIGKILL and reap; true when the process died of that signal.
  bool Kill() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGKILL);
    int status = 0;
    const bool reaped = waitpid(pid_, &status, 0) == pid_;
    pid_ = -1;
    return reaped && WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  }

  /// Closes stdin (laminar_serve then shuts down) and reaps; true on a
  /// clean exit.
  bool Stop() {
    if (pid_ <= 0) return false;
    close(stdin_fd_);
    stdin_fd_ = -1;
    int status = 0;
    const bool reaped = waitpid(pid_, &status, 0) == pid_;
    pid_ = -1;
    return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace laminar
