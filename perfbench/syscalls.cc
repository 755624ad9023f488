// Counts the socket system calls the transport makes.  The benchmark is
// linked with -Wl,--wrap for each call below, so every call site in the
// Moira libraries reaches the __wrap_ function, which counts (only while
// counting is enabled, i.e. in the traced run) and forwards to libc.
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>

#include "perfbench/trace.h"

namespace perfbench {
namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> calls{0};

inline void Count() {
  if (counting.load(std::memory_order_relaxed)) {
    calls.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void EnableSyscallCounting(bool on) { counting.store(on); }
uint64_t SocketSyscalls() { return calls.load(); }

}  // namespace perfbench

extern "C" {

ssize_t __real_send(int fd, const void* buf, size_t n, int flags);
ssize_t __real_recv(int fd, void* buf, size_t n, int flags);
int __real_poll(struct pollfd* fds, nfds_t nfds, int timeout);
int __real_accept(int fd, struct sockaddr* addr, socklen_t* len);

ssize_t __wrap_send(int fd, const void* buf, size_t n, int flags) {
  perfbench::Count();
  return __real_send(fd, buf, n, flags);
}

ssize_t __wrap_recv(int fd, void* buf, size_t n, int flags) {
  perfbench::Count();
  return __real_recv(fd, buf, n, flags);
}

int __wrap_poll(struct pollfd* fds, nfds_t nfds, int timeout) {
  perfbench::Count();
  return __real_poll(fds, nfds, timeout);
}

int __wrap_accept(int fd, struct sockaddr* addr, socklen_t* len) {
  perfbench::Count();
  return __real_accept(fd, addr, len);
}

}  // extern "C"
