#include "serve/transport.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/require.hpp"
#include "util/syscall.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace sparsetrain::serve {

/// A listener's descriptor and stop flag, shared with every thread that
/// may stop it. shutdown() may run on any thread, or in a signal
/// handler, while close() runs on the owner's: close() takes the
/// descriptor with an exchange and then waits out the shutdown() calls
/// in progress, so ::shutdown never reaches a descriptor number that
/// ::close already released (and the kernel may have handed out again).
struct ListenerStop {
  std::atomic<bool> stopping{false};
  std::atomic<int> fd{-1};
  std::atomic<int> kicks{0};  ///< shutdown() calls that may use `fd`
};

bool Listener::valid() const { return stop_ != nullptr && stop_->fd >= 0; }

std::string Endpoint::describe() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& spec) {
  ST_REQUIRE(!spec.empty(), "transport: empty endpoint spec");
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.path = spec.substr(5);
    ST_REQUIRE(!ep.path.empty(), "transport: empty unix path in '" + spec +
                                     "'");
    return ep;
  }
  // A '/' anywhere means a filesystem path, ':' or not ("/tmp/a:b.sock"
  // is a legal socket path).
  if (spec.find('/') == std::string::npos) {
    const std::size_t colon = spec.rfind(':');
    if (colon != std::string::npos && colon > 0 &&
        colon + 1 < spec.size()) {
      const std::string port_str = spec.substr(colon + 1);
      bool digits = true;
      for (const char c : port_str) digits = digits && c >= '0' && c <= '9';
      if (digits) {
        unsigned long port = 0;
        for (const char c : port_str) {
          port = port * 10 + static_cast<unsigned long>(c - '0');
          ST_REQUIRE(port <= 65535,
                     "transport: port out of range in '" + spec + "'");
        }
        ep.kind = Endpoint::Kind::Tcp;
        ep.host = spec.substr(0, colon);
        ep.port = static_cast<std::uint16_t>(port);
        return ep;
      }
    }
  }
  ep.path = spec;
  return ep;
}

#ifndef _WIN32

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  const int err = errno;
  ST_REQUIRE(false, what + ": " + util::errno_text(err));
  __builtin_unreachable();
}

/// getaddrinfo over the endpoint's host/port; calls `fn(fd, addr, len)`
/// for each candidate until it returns true. Returns the winning fd, or
/// -1 with `error` set.
template <typename Fn>
int each_tcp_addr(const Endpoint& ep, std::string& error, Fn&& fn) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(ep.port);
  const int rc = ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    error = "cannot resolve '" + ep.host + "': " + ::gai_strerror(rc);
    return -1;
  }
  int fd = -1;
  error = "no usable address for '" + ep.host + "'";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      error = "socket: " + util::errno_text(errno);
      continue;
    }
    if (fn(fd, ai->ai_addr, ai->ai_addrlen)) break;
    error = util::errno_text(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ST_REQUIRE(path.size() < sizeof(addr.sun_path),
             "transport: unix-socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

/// connect() bounded by `timeout_ms`: the socket goes non-blocking for
/// the connect, a poll(POLLOUT) waits for completion, SO_ERROR reports
/// the outcome, and blocking mode is restored for the Conn. With
/// timeout_ms <= 0 this is a plain blocking connect. Returns 0 on
/// success; otherwise -1 with errno set (ETIMEDOUT for a poll timeout).
int timed_connect(int fd, const sockaddr* addr, socklen_t len,
                  long timeout_ms) {
  if (timeout_ms <= 0) {
    return static_cast<int>(
        util::retry_eintr([&] { return ::connect(fd, addr, len); }));
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return -1;
  int rc = static_cast<int>(
      util::retry_eintr([&] { return ::connect(fd, addr, len); }));
  if (rc != 0 && (errno == EINPROGRESS || errno == EAGAIN)) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    const int pr = static_cast<int>(util::retry_eintr(
        [&] { return ::poll(&p, 1, static_cast<int>(timeout_ms)); }));
    if (pr == 0) {
      errno = ETIMEDOUT;
      rc = -1;
    } else if (pr < 0) {
      rc = -1;
    } else {
      int soerr = 0;
      socklen_t slen = sizeof soerr;
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0) {
        rc = -1;
      } else if (soerr != 0) {
        errno = soerr;
        rc = -1;
      } else {
        rc = 0;
      }
    }
  }
  const int saved = errno;
  ::fcntl(fd, F_SETFL, flags);  // the Conn reads/writes in blocking mode
  errno = saved;
  return rc;
}

}  // namespace

// ------------------------------------------------------------------ Conn

Conn::~Conn() { close(); }

Conn::Conn(Conn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buf_(std::move(other.buf_)),
      buf_pos_(std::exchange(other.buf_pos_, 0)) {}

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
    buf_pos_ = std::exchange(other.buf_pos_, 0);
  }
  return *this;
}

Conn::ReadStatus Conn::read_line(std::string& out, long timeout_ms) {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  for (;;) {
    const std::size_t nl = buf_.find('\n', buf_pos_);
    if (nl != std::string::npos) {
      out.assign(buf_, buf_pos_, nl - buf_pos_);
      while (!out.empty() && out.back() == '\r') out.pop_back();
      buf_pos_ = nl + 1;
      if (buf_pos_ == buf_.size()) {
        buf_.clear();
        buf_pos_ = 0;
      }
      return ReadStatus::Ok;
    }
    if (fd_ < 0) return ReadStatus::Error;
    if (buf_.size() - buf_pos_ > kMaxLine) {
      return ReadStatus::Error;  // peer is streaming, not speaking NDJSON
    }
    if (timeout_ms > 0) {
      const auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - clock::now())
                              .count();
      if (remain <= 0) return ReadStatus::Timeout;
      pollfd p{};
      p.fd = fd_;
      p.events = POLLIN;
      const int pr = ::poll(&p, 1, static_cast<int>(remain));
      if (pr < 0) {
        if (errno == EINTR) continue;
        return ReadStatus::Error;
      }
      if (pr == 0) return ReadStatus::Timeout;
    }
    char chunk[1 << 14];
    const ssize_t n = util::retry_eintr(
        [&] { return ::read(fd_, chunk, sizeof chunk); });
    if (n == 0) return ReadStatus::Eof;
    if (n < 0) return ReadStatus::Error;
    if (buf_pos_ > 0 && buf_pos_ == buf_.size()) {
      buf_.clear();
      buf_pos_ = 0;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Conn::write_all(const void* data, std::size_t n) {
  if (fd_ < 0) return false;
  const char* p = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a vanished peer is a false return, never a SIGPIPE.
    const ssize_t w = util::retry_eintr(
        [&] { return ::send(fd_, p + off, n - off, MSG_NOSIGNAL); });
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

bool Conn::write_line(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  return write_all(framed.data(), framed.size());
}

void Conn::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Conn connect_endpoint(const Endpoint& ep, std::string* error,
                      long connect_timeout_ms) {
  std::string err;
  if (ep.kind == Endpoint::Kind::Unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      err = "socket: " + util::errno_text(errno);
    } else {
      const sockaddr_un addr = unix_addr(ep.path);
      if (timed_connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr), connect_timeout_ms) == 0) {
        return Conn(fd);
      }
      err = "connect " + ep.path + ": " + util::errno_text(errno);
      ::close(fd);
    }
  } else {
    const int fd =
        each_tcp_addr(ep, err, [connect_timeout_ms](int s, sockaddr* a,
                                                    socklen_t len) {
          return timed_connect(s, a, len, connect_timeout_ms) == 0;
        });
    if (fd >= 0) return Conn(fd);
    err = "connect " + ep.describe() + ": " + err;
  }
  if (error != nullptr) *error = err;
  return Conn{};
}

// -------------------------------------------------------------- Listener

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : ep_(std::move(other.ep_)),
      unlink_path_(std::move(other.unlink_path_)),
      stop_(std::move(other.stop_)) {
  other.unlink_path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    ep_ = std::move(other.ep_);
    unlink_path_ = std::move(other.unlink_path_);
    other.unlink_path_.clear();
    stop_ = std::move(other.stop_);
  }
  return *this;
}

Listener Listener::listen(const std::string& spec, int backlog) {
  return listen(parse_endpoint(spec), backlog);
}

Listener Listener::listen(const Endpoint& ep, int backlog) {
  Listener l;
  l.ep_ = ep;
  l.stop_ = std::make_shared<ListenerStop>();
  if (ep.kind == Endpoint::Kind::Unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) fail_errno("listen: cannot create unix socket");
    l.stop_->fd = fd;  // from here on l's destructor closes it
    const sockaddr_un addr = unix_addr(ep.path);
    ::unlink(ep.path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      fail_errno("listen: cannot bind " + ep.path);
    }
    l.unlink_path_ = ep.path;
    if (::listen(fd, backlog) != 0) {
      fail_errno("listen: cannot listen on " + ep.path);
    }
    return l;
  }

  std::string err;
  const int fd = each_tcp_addr(ep, err, [backlog](int s, sockaddr* a,
                                                  socklen_t len) {
    // REUSEADDR: a restarted daemon rebinds its port immediately instead
    // of failing for a TIME_WAIT period — the restart path clients retry
    // against must come back fast.
    const int one = 1;
    ::setsockopt(s, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    return ::bind(s, a, len) == 0 && ::listen(s, backlog) == 0;
  });
  ST_REQUIRE(fd >= 0,
             "listen: cannot bind/listen on " + ep.describe() + ": " + err);
  l.stop_->fd = fd;
  sockaddr_storage bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
    if (bound.ss_family == AF_INET) {
      l.ep_.port =
          ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      l.ep_.port =
          ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  return l;
}

Conn Listener::accept() {
  for (;;) {
    if (!valid() || stop_->stopping.load()) return Conn{};
    const int fd = ::accept(stop_->fd, nullptr, nullptr);
    if (fd >= 0) {
      if (stop_->stopping.load()) {
        ::close(fd);  // raced a shutdown: refuse, do not serve
        return Conn{};
      }
      return Conn(fd);
    }
    if (stop_->stopping.load()) return Conn{};
    switch (errno) {
      case EINTR:
      case ECONNABORTED:
      case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
      case EWOULDBLOCK:
#endif
        continue;  // transient: the listener must outlive flaky peers
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        // Resource exhaustion: back off and retry rather than dying —
        // connections will close and free descriptors.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      default:
        return Conn{};  // unrecoverable listener error
    }
  }
}

void Listener::shutdown() {
  // Atomics and shutdown(2) only: this runs in signal handlers.
  if (stop_ == nullptr) return;
  stop_->stopping.store(true);
  ++stop_->kicks;
  // Wakes a blocked accept (Linux: it fails with EINVAL afterwards).
  const int fd = stop_->fd;
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  --stop_->kicks;
}

void Listener::close() {
  const int fd = stop_ != nullptr ? stop_->fd.exchange(-1) : -1;
  if (fd >= 0) {
    // A shutdown() that read the descriptor before the exchange may not
    // have kicked it yet; the number stays ours until it has.
    while (stop_->kicks != 0) std::this_thread::yield();
    ::close(fd);
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

#else  // _WIN32

Conn::~Conn() = default;
Conn::Conn(Conn&&) noexcept = default;
Conn& Conn::operator=(Conn&&) noexcept = default;
Conn::ReadStatus Conn::read_line(std::string&, long) {
  return ReadStatus::Error;
}
bool Conn::write_all(const void*, std::size_t) { return false; }
bool Conn::write_line(const std::string&) { return false; }
void Conn::shutdown() {}
void Conn::close() { fd_ = -1; }

Conn connect_endpoint(const Endpoint& ep, std::string* error, long) {
  if (error != nullptr) {
    *error = "sockets are unavailable on this platform (" + ep.describe() +
             ")";
  }
  return Conn{};
}

Listener::~Listener() = default;
Listener::Listener(Listener&&) noexcept = default;
Listener& Listener::operator=(Listener&&) noexcept = default;
Listener Listener::listen(const Endpoint& ep, int) {
  ST_REQUIRE(false, "listen: sockets are unavailable on this platform (" +
                        ep.describe() + ")");
}
Listener Listener::listen(const std::string& spec, int backlog) {
  return listen(parse_endpoint(spec), backlog);
}
Conn Listener::accept() { return Conn{}; }
void Listener::shutdown() {}
void Listener::close() {}

#endif

}  // namespace sparsetrain::serve
