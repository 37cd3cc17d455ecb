// Stream transport for the evaluation daemon: AF_UNIX and TCP behind one
// Listener/Conn abstraction.
//
// An Endpoint is parsed from one spec string: "host:port" (numeric port)
// means TCP, "unix:<path>" or anything else means a unix-domain socket
// path — so "--listen 127.0.0.1:7117" and "--listen /tmp/st.sock" go
// through the same code. Listeners retry transient accept failures
// (EINTR, ECONNABORTED, fd exhaustion with a backoff) instead of exiting,
// and report fatal bind/listen failures with the errno text. Conn does
// EINTR-safe full-read/full-write loops (partial writes are completed,
// never dropped), line framing with a hard per-line size cap, and
// poll-based read deadlines — the pieces per-connection idle timeouts and
// client deadlines are built from.
//
// shutdown() on either class is thread-safe and wakes the blocked peer
// loop: kicking a connection makes its read return Eof, stopping a
// listener makes accept() return an invalid Conn exactly once per caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace sparsetrain::serve {

struct Endpoint {
  enum class Kind { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;         ///< unix-socket path (Kind::Unix)
  std::string host;         ///< numeric or named host (Kind::Tcp)
  std::uint16_t port = 0;   ///< 0 = ephemeral (listeners only)

  std::string describe() const;
};

/// Parses an endpoint spec. "unix:<path>" and any spec containing '/'
/// are unix paths; otherwise "host:port" with a numeric port is TCP
/// (port > 65535 throws); anything else is a unix path. Empty specs
/// throw ContractError.
Endpoint parse_endpoint(const std::string& spec);

/// One connected stream socket. Move-only; the destructor closes the fd.
class Conn {
 public:
  /// Longest accepted request/response line. The JSON layer caps
  /// documents at 1 MiB; a peer streaming more than this without a
  /// newline is not speaking the protocol and gets dropped.
  static constexpr std::size_t kMaxLine = 4u << 20;

  enum class ReadStatus { Ok, Eof, Timeout, Error };

  Conn() = default;
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn();

  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads the next newline-terminated line into `out` (the terminator
  /// and any trailing '\r' are stripped). `timeout_ms > 0` bounds the
  /// wait for the complete line; <= 0 waits forever. Eof is returned on
  /// a clean peer close, Error on a transport failure or a line past
  /// kMaxLine.
  ReadStatus read_line(std::string& out, long timeout_ms = 0);

  /// Writes all `n` bytes, looping over partial writes and EINTR.
  /// Never raises SIGPIPE; returns false when the peer is gone.
  bool write_all(const void* data, std::size_t n);
  bool write_line(const std::string& line);  ///< write_all of line + '\n'

  /// Half-closes both directions (thread-safe): a peer loop blocked in
  /// read_line wakes up with Eof. The fd stays valid until close().
  void shutdown();
  void close();

 private:
  int fd_ = -1;
  std::string buf_;           ///< receive buffer (line framing)
  std::size_t buf_pos_ = 0;   ///< consumed prefix of buf_
};

/// Connects to `ep`. Returns an invalid Conn on failure, with the cause
/// in `*error` when given. `connect_timeout_ms > 0` bounds the connect
/// itself (non-blocking connect + poll, so a blackholed host fails after
/// the timeout instead of the kernel's multi-minute SYN retry default);
/// <= 0 keeps the blocking connect.
Conn connect_endpoint(const Endpoint& ep, std::string* error = nullptr,
                      long connect_timeout_ms = 0);

/// A listening socket (AF_UNIX or TCP). Move-only; unix paths are
/// unlinked on close.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on `ep`. Throws ContractError carrying the errno
  /// text when the socket cannot be created/bound. For TCP with port 0
  /// the chosen ephemeral port is reflected in endpoint().
  static Listener listen(const Endpoint& ep, int backlog = 64);
  static Listener listen(const std::string& spec, int backlog = 64);

  bool valid() const;
  const Endpoint& endpoint() const { return ep_; }

  /// Blocks for the next connection. Transient failures — EINTR,
  /// ECONNABORTED, EAGAIN, and fd/buffer exhaustion (with a short
  /// backoff) — are retried; only shutdown() or an unrecoverable
  /// listener error yields an invalid Conn.
  Conn accept();

  /// Stops the listener (thread-safe and async-signal-safe, and safe
  /// against a concurrent close()): a blocked accept() returns an invalid
  /// Conn, and later accepts fail fast.
  void shutdown();
  void close();

 private:
  Endpoint ep_;
  std::string unlink_path_;  ///< bound unix path, removed at close
  /// The descriptor and stop flag; null when default-constructed or
  /// moved from.
  std::shared_ptr<struct ListenerStop> stop_;
};

}  // namespace sparsetrain::serve
