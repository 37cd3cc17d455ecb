// Load generation for the serve_mix workload: the request stream (a pure
// function of the seed), the open- and closed-loop runners, and the
// daemon processes under test.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace stbench {

enum class Cls { Hot, Cold, Malformed };
const char* cls_name(Cls c);

/// One (zoo workload, pruning rate) evaluation key; p = p_bp / 10000.
struct EvalKey {
  std::string workload;
  int p_bp = 0;
  double p() const { return p_bp / 10000.0; }
  bool operator==(const EvalKey&) const = default;
};

/// One request of the stream. `key` indexes MixPlan::keys for hot and
/// cold items and the malformed corpus for malformed ones.
struct Item {
  double due_s = 0.0;  ///< open loop: send time relative to phase start
  Cls cls = Cls::Hot;
  std::size_t key = 0;
  bool operator==(const Item&) const = default;
};

struct MixSpec {
  double rate = 100.0;           ///< open-loop rate, evenly spaced, req/s
  double open_s = 10.0;          ///< open-loop schedule length
  std::size_t closed_items = 0;  ///< items drawn for the closed loop
  /// Hot keys per zoo workload, warmed before timing (3 x 8 = 24).
  std::size_t hot_per_workload = 3;
  /// Class mix of every block of 50 requests: 80% / 18% / 2%.
  std::size_t block_hot = 40;
  std::size_t block_cold = 9;
  std::size_t block_malformed = 1;
};

struct MixPlan {
  /// Hot keys first ([0, hot)), then every cold key in draw order; all
  /// distinct, so each cold request misses the store and ProgramCache.
  std::vector<EvalKey> keys;
  std::size_t hot = 0;
  std::vector<Item> open;    ///< one request every 1/rate s
  std::vector<Item> closed;  ///< saturation stream, sent in order
};

/// Draws the whole stream from `seed`: same seed, same plan.
MixPlan make_plan(std::uint64_t seed, const MixSpec& spec);

/// Lines the service must answer with status "error".
const std::vector<std::string>& malformed_corpus();

/// The wire line of `item` (an eval request carrying `id`, or a corpus
/// line).
std::string request_line(const MixPlan& plan, const Item& item,
                         const std::string& id);

/// Timing of one exchange, in seconds from the phase start.
struct Outcome {
  std::size_t item = 0;  ///< index into the schedule or stream
  double due_s = 0.0;
  double send_s = 0.0;
  double done_s = 0.0;
  std::string response;     ///< raw response line
  std::string error;        ///< transport failure text ("" = answered)
  bool sent = false;
  /// Latency as the user sees it: from when the request was due (open
  /// loop) or sent (closed loop) to its response.
  double latency_s() const { return done_s - due_s; }
  double late_s() const { return send_s - due_s; }
};

/// Sends item `item` over connection `conn` and returns the response
/// line; throws on a transport failure.
using Sender = std::function<std::string(std::size_t conn, std::size_t item)>;

/// Open loop: `conns` connections share the schedule `due_s`; item i is
/// sent at its due time or, when every connection is busy, as soon as
/// one frees up — and its latency still counts from the due time, so a
/// stall is charged to every request queued behind it.
std::vector<Outcome> run_open_loop(const std::vector<double>& due_s,
                                   std::size_t conns, const Sender& send);

/// Closed loop: each of `conns` connections sends the next unsent item
/// as soon as its previous one is answered, until `seconds` elapse or
/// `items` run out. Returns the outcomes of the items that were sent.
std::vector<Outcome> run_closed_loop(std::size_t items, std::size_t conns,
                                     double seconds, const Sender& send);

/// A child process (one daemon under test). The destructor stops it:
/// SIGTERM for a graceful drain, SIGKILL after `grace_s`, and waits for
/// it either way, so no child outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }
  /// Peak resident set (VmHWM) so far, in MiB; 0 once stopped.
  double peak_rss_mb() const;
  /// CPU time (user + system) the process has used so far, in seconds;
  /// 0 once stopped.
  double cpu_s() const;
  /// Stops and reaps the process; returns its wait status (idempotent).
  int stop(double grace_s = 5.0);

 private:
  int pid_ = -1;
  int status_ = 0;
};

/// A TCP port on 127.0.0.1 that was free a moment ago.
int free_tcp_port();

/// Peak resident set of this process, in MiB.
double self_peak_rss_mb();

/// CPU time (user + system, all threads) this process has used so far,
/// in seconds.
double self_cpu_s();

}  // namespace stbench
