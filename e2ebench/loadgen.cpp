#include "loadgen.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/client.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workload/layer_config.hpp"

namespace stbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point at(Clock::time_point t0, double s) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(s));
}

void run_workers(std::size_t conns, const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

void exchange(Outcome& o, Clock::time_point t0, const Sender& send,
              std::size_t conn, std::size_t item) {
  o.item = item;
  o.send_s = seconds_since(t0);
  o.sent = true;
  try {
    o.response = send(conn, item);
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  o.done_s = seconds_since(t0);
}

}  // namespace

const char* cls_name(Cls c) {
  switch (c) {
    case Cls::Hot:
      return "hot";
    case Cls::Cold:
      return "cold";
    case Cls::Malformed:
      return "malformed";
  }
  return "?";
}

MixPlan make_plan(std::uint64_t seed, const MixSpec& spec) {
  MixPlan plan;
  const std::vector<std::string> zoo = sparsetrain::workload::workload_names();
  sparsetrain::Rng rng(sparsetrain::mix64(seed, 0x5e12e5));
  std::set<std::pair<std::string, int>> used;
  // Pruning rates 0.30..0.95 in 1e-4 steps: every key is a distinct
  // sparsity profile, hence a distinct program and store record.
  const auto fresh = [&](const std::string& workload) {
    for (;;) {
      EvalKey k{workload, 3000 + static_cast<int>(rng.uniform_index(6501))};
      if (used.emplace(k.workload, k.p_bp).second) return k;
    }
  };
  // Stratified draws: each block of requests has the exact class mix,
  // every hot key recurs equally often, and every run of zoo.size() cold
  // keys covers each zoo workload once. Seeds then differ in order and
  // pruning rates, not in how much simulation work a run carries — the
  // workloads' costs span 3 to 70 ms, and an unlucky mix would otherwise
  // move every latency figure between seeds.
  const auto take = [&](auto& bag, const auto& refill) {
    if (bag.empty()) {
      bag = refill;
      for (std::size_t i = bag.size(); i > 1; --i) {
        std::swap(bag[i - 1], bag[rng.uniform_index(i)]);
      }
    }
    auto v = bag.back();
    bag.pop_back();
    return v;
  };
  for (std::size_t r = 0; r < spec.hot_per_workload; ++r) {
    for (const std::string& w : zoo) plan.keys.push_back(fresh(w));
  }
  plan.hot = plan.keys.size();
  std::vector<Cls> block_mix(spec.block_hot, Cls::Hot);
  block_mix.insert(block_mix.end(), spec.block_cold, Cls::Cold);
  block_mix.insert(block_mix.end(), spec.block_malformed, Cls::Malformed);
  std::vector<std::size_t> hot_ids(plan.hot);
  for (std::size_t i = 0; i < plan.hot; ++i) hot_ids[i] = i;
  std::vector<std::size_t> corpus_ids(malformed_corpus().size());
  for (std::size_t i = 0; i < corpus_ids.size(); ++i) corpus_ids[i] = i;
  std::vector<Cls> block;
  std::vector<std::size_t> hot_bag, corpus_bag;
  std::vector<std::string> cold_bag;
  const auto draw = [&](double due) {
    Item it;
    it.due_s = due;
    it.cls = take(block, block_mix);
    if (it.cls == Cls::Hot) {
      it.key = take(hot_bag, hot_ids);
    } else if (it.cls == Cls::Cold) {
      it.key = plan.keys.size();
      plan.keys.push_back(fresh(take(cold_bag, zoo)));
    } else {
      it.key = take(corpus_bag, corpus_ids);
    }
    return it;
  };
  const auto n_open = static_cast<std::size_t>(spec.open_s * spec.rate);
  for (std::size_t i = 0; i < n_open; ++i) {
    plan.open.push_back(draw(static_cast<double>(i) / spec.rate));
  }
  for (std::size_t i = 0; i < spec.closed_items; ++i) {
    plan.closed.push_back(draw(0.0));
  }
  return plan;
}

const std::vector<std::string>& malformed_corpus() {
  // Parse failures the router answers itself, plus requests that parse
  // but name nothing the service knows (answered by a shard).
  static const std::vector<std::string> corpus = {
      "not json",
      "{\"type\":\"eval\",\"workload\":\"AlexNet/CIFAR\"",
      "{\"type\":\"bogus\",\"id\":\"m\"}",
      "{\"type\":\"eval\",\"id\":\"m\",\"p\":1.5}",
      "{\"type\":\"eval\",\"id\":\"m\",\"workload\":\"NoSuchNet/CIFAR\"}",
  };
  return corpus;
}

std::string request_line(const MixPlan& plan, const Item& item,
                         const std::string& id) {
  if (item.cls == Cls::Malformed) return malformed_corpus().at(item.key);
  const EvalKey& k = plan.keys.at(item.key);
  sparsetrain::serve::Request r;
  r.type = "eval";
  r.id = id;
  r.workload = k.workload;
  r.scenario = "pruned";
  r.p = k.p();
  return sparsetrain::serve::format_request(r);
}

std::vector<Outcome> run_open_loop(const std::vector<double>& due_s,
                                   std::size_t conns, const Sender& send) {
  std::vector<Outcome> out(due_s.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  run_workers(conns, [&](std::size_t conn) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= due_s.size()) return;
      out[i].due_s = due_s[i];
      std::this_thread::sleep_until(at(t0, due_s[i]));
      exchange(out[i], t0, send, conn, i);
    }
  });
  return out;
}

std::vector<Outcome> run_closed_loop(std::size_t items, std::size_t conns,
                                     double seconds, const Sender& send) {
  std::vector<Outcome> out(items);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  run_workers(conns, [&](std::size_t conn) {
    while (seconds_since(t0) < seconds) {
      const std::size_t i = next.fetch_add(1);
      if (i >= items) return;
      out[i].due_s = seconds_since(t0);
      exchange(out[i], t0, send, conn, i);
    }
  });
  // Items no worker claimed before the deadline were never sent.
  std::vector<Outcome> sent;
  for (Outcome& o : out) {
    if (o.sent) sent.push_back(std::move(o));
  }
  return sent;
}

Daemon::Daemon(const std::vector<std::string>& argv,
               const std::string& log_path) {
  if (argv.empty()) throw std::invalid_argument("Daemon: empty argv");
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log < 0) throw std::runtime_error("cannot open " + log_path);
  const int devnull = ::open("/dev/null", O_RDONLY);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. A benchmark
    // that dies abruptly takes its daemons with it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(devnull, 0);
    ::dup2(log, 1);
    ::dup2(log, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log);
  if (devnull >= 0) ::close(devnull);
  if (pid < 0) throw std::runtime_error("fork failed for " + argv[0]);
  pid_ = pid;
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0.0;
}

double Daemon::cpu_s() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 12th and 13th of them.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int Daemon::stop(double grace_s) {
  if (pid_ <= 0) return status_;
  ::kill(pid_, SIGTERM);
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status_, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (seconds_since(t0) > grace_s) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  return status_;
}

int free_tcp_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) throw std::runtime_error("cannot bind an ephemeral port");
  return ntohs(addr.sin_port);
}

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

}  // namespace stbench
